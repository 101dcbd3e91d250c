package shardfile

import (
	"fmt"
	"io"
	"time"

	"gemmec/internal/ecerr"
)

// stallGuard enforces a per-shard read deadline under the decode path's
// bufio layer. Regular-file reads cannot carry deadlines on most
// platforms (os.File.SetReadDeadline returns ErrNoDeadline), so the guard
// moves the read to a pump goroutine that owns a private buffer and races
// it against a timer. A read that beats the deadline is copied out; a
// read that does not marks the guard stalled and returns an error
// wrapping ecerr.ErrShardStall, which the decode demoter turns into a
// mid-stream demotion (cause "stall") — the GET completes degraded
// instead of hanging on the silent disk.
//
// The guard sits under bufio, so its deadline covers one underlying read
// as bufio issues it: one unit when units are at least streamBufSize (the
// default geometry — bufio passes those reads straight through, so
// ShardReadTimeout is a per-unit deadline), one streamBufSize refill
// shared by several units when they are smaller. The private buffer and
// its extra copy exist only on a guarded stream; with ShardReadTimeout
// zero no guard is built and reads land directly in the stripe ring.
// After a stall the pump stays blocked in the underlying read; it writes
// only its private buffer, so the abandoned read races nothing. stop()
// lets the pump exit once that read finally returns.
type stallGuard struct {
	r       io.Reader
	shard   int
	timeout time.Duration

	reqs    chan int
	resps   chan stallResult
	buf     []byte // pump-owned; guard reads it only after a resps receive
	timer   *time.Timer
	started bool
	stalled bool
	closed  bool
}

type stallResult struct {
	n   int
	err error
}

func newStallGuard(r io.Reader, shard int, timeout time.Duration) *stallGuard {
	return &stallGuard{
		r:       r,
		shard:   shard,
		timeout: timeout,
		reqs:    make(chan int),
		resps:   make(chan stallResult, 1),
	}
}

func (g *stallGuard) pump() {
	for n := range g.reqs {
		if cap(g.buf) < n {
			g.buf = make([]byte, n)
		}
		rn, err := g.r.Read(g.buf[:n])
		g.resps <- stallResult{n: rn, err: err} // cap 1: never blocks
	}
}

func (g *stallGuard) stallErr() error {
	return fmt.Errorf("shardfile: shard %d read exceeded %v deadline: %w",
		g.shard, g.timeout, ecerr.ErrShardStall)
}

// Read is called from a single goroutine (the decode reader stage, via
// bufio); the guard is not safe for concurrent readers.
func (g *stallGuard) Read(p []byte) (int, error) {
	if g.stalled {
		return 0, g.stallErr()
	}
	if !g.started {
		g.started = true
		go g.pump()
	}
	g.reqs <- len(p)
	if g.timer == nil {
		g.timer = time.NewTimer(g.timeout)
	} else {
		g.timer.Reset(g.timeout)
	}
	select {
	case res := <-g.resps:
		if !g.timer.Stop() {
			<-g.timer.C
		}
		n := copy(p, g.buf[:res.n])
		return n, res.err
	case <-g.timer.C:
		// The pump stays parked on the in-flight read; this shard is done
		// serving the stream either way.
		g.stalled = true
		return 0, g.stallErr()
	}
}

// stop lets the pump goroutine exit after its in-flight read (if any)
// returns. Must not race Read; StreamReader.Close runs after Decode.
func (g *stallGuard) stop() {
	if !g.closed {
		g.closed = true
		close(g.reqs)
	}
}

package gemmec

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"sync"
	"testing"
)

// encodeShards encodes src and returns the shard bytes, for comparing the
// scheduler path against the inline baseline.
func encodeShards(t *testing.T, c *Code, src []byte, opts ...StreamOption) [][]byte {
	t.Helper()
	sinks := make([]*bytes.Buffer, c.K()+c.R())
	writers := make([]io.Writer, len(sinks))
	for i := range sinks {
		sinks[i] = &bytes.Buffer{}
		writers[i] = sinks[i]
	}
	if _, err := c.EncodeStream(bytes.NewReader(src), writers, opts...); err != nil {
		t.Fatal(err)
	}
	out := make([][]byte, len(sinks))
	for i, s := range sinks {
		out[i] = s.Bytes()
	}
	return out
}

// TestSchedulerRoundTrip: parallelism is a scheduling concern, never a
// codec concern. Against the inline path (no scheduler), pools of 1, 2 and
// 4 workers produce byte-identical shards and the same stripe count at
// every size class, round-trip through losses, and decode the same
// plaintext from the same losses.
func TestSchedulerRoundTrip(t *testing.T) {
	c := newSmall(t, 4, 2)
	stripe := c.DataSize()
	sizes := []int{0, 1, c.UnitSize(), c.UnitSize() + 3, stripe - 1, stripe, stripe + 1, 3*stripe + 1234, 5*stripe + 91}
	for _, workers := range []int{1, 2, 4} {
		s := NewScheduler(SchedulerConfig{Workers: workers})
		t.Cleanup(s.Close)
		for _, size := range sizes {
			src := make([]byte, size)
			rand.New(rand.NewSource(int64(size) + 1)).Read(src)
			var inlineSt, poolSt StreamStats
			inline := encodeShards(t, c, src, WithStreamStats(&inlineSt))
			pooled := encodeShards(t, c, src, WithStreamScheduler(s), WithStreamStats(&poolSt))
			for i := range inline {
				if !bytes.Equal(inline[i], pooled[i]) {
					t.Fatalf("workers=%d size=%d: shard %d differs between inline and scheduler paths", workers, size, i)
				}
			}
			if inlineSt.Stripes != poolSt.Stripes {
				t.Fatalf("workers=%d size=%d: %d stripes inline, %d on the scheduler", workers, size, inlineSt.Stripes, poolSt.Stripes)
			}
			for _, lose := range [][]int{nil, {0}, {1, 5}} {
				for _, opts := range [][]StreamOption{nil, {WithStreamScheduler(s)}} {
					readers := make([]io.Reader, len(inline))
					for i := range inline {
						readers[i] = bytes.NewReader(inline[i])
					}
					for _, i := range lose {
						readers[i] = nil
					}
					var out bytes.Buffer
					if err := c.DecodeStream(readers, &out, int64(size), opts...); err != nil {
						t.Fatalf("workers=%d size=%d lose=%v scheduler=%v: %v", workers, size, lose, opts != nil, err)
					}
					if !bytes.Equal(out.Bytes(), src) {
						t.Fatalf("workers=%d size=%d lose=%v scheduler=%v: decode output differs from source", workers, size, lose, opts != nil)
					}
				}
			}
		}
	}
}

// TestSchedulerSharedAcrossStreams: many concurrent streams multiplex onto
// one pool. Primarily a -race target for the queue-per-stream design.
func TestSchedulerSharedAcrossStreams(t *testing.T) {
	c := newSmall(t, 4, 2)
	s := NewScheduler(SchedulerConfig{Workers: 4})
	defer s.Close()
	size := 3*c.DataSize() + 77
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			streamRoundTrip(t, c, size, []int{1}, WithStreamScheduler(s))
		}()
	}
	wg.Wait()
}

// TestSchedulerAdmission: the public Admit/Release surface sheds past
// MaxStreams with an ErrOverloaded-classified error.
func TestSchedulerAdmission(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 1, MaxStreams: 1})
	defer s.Close()
	if err := s.Admit(); err != nil {
		t.Fatal(err)
	}
	if err := s.Admit(); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("second Admit: got %v, want ErrOverloaded", err)
	}
	if got := s.Shed(); got != 1 {
		t.Fatalf("Shed() = %d, want 1", got)
	}
	s.Release()
	if err := s.Admit(); err != nil {
		t.Fatalf("Admit after Release: %v", err)
	}
	s.Release()
}

// TestSchedulerNilOption: WithStreamScheduler(nil) is a configuration
// error, reported before any I/O happens.
func TestSchedulerNilOption(t *testing.T) {
	c := newSmall(t, 4, 2)
	_, err := c.EncodeStream(bytes.NewReader(nil), make([]io.Writer, 0), WithStreamScheduler(nil))
	if err == nil {
		t.Fatal("EncodeStream with nil scheduler succeeded")
	}
}

// TestSchedulerClosedStillCompletes: a stream attached to an
// already-closed scheduler falls back to synchronous execution instead of
// hanging — the shutdown guarantee Close documents.
func TestSchedulerClosedStillCompletes(t *testing.T) {
	c := newSmall(t, 4, 2)
	s := NewScheduler(SchedulerConfig{Workers: 2})
	s.Close()
	streamRoundTrip(t, c, 2*c.DataSize()+5, []int{0}, WithStreamScheduler(s))
}

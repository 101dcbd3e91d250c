package server

import (
	"context"
	"math/rand"
	"runtime/pprof"
	"sync/atomic"
	"time"
)

// Scrubber is the daemon's background repair loop: it sweeps the whole
// catalog (verify every shard's checksum, rebuild what rotted or vanished)
// once per interval, jittered so a fleet of daemons sharing storage does
// not scrub in lockstep. Start it with StartScrubber; Stop cancels the
// in-flight sweep's context and waits for it to return — safe at any
// point, because every heal is whole-shard temp-file + rename, so a
// canceled sweep leaves shards either untouched or fully healed.
type Scrubber struct {
	store    Backend
	interval time.Duration
	logf     Logf
	kick     chan struct{}
	stop     chan struct{}
	done     chan struct{}
	ctx      context.Context
	cancel   context.CancelFunc

	// lastDone is the unix-nano time the last sweep completed, seeded with
	// the start time so a freshly started daemon reads as live. /healthz
	// compares it against 3× the interval — comfortably past the jitter
	// ceiling of 1.5× — to detect a wedged loop.
	lastDone atomic.Int64
}

// StartScrubber launches the background scrub loop over any Backend —
// the local Store's verify-and-heal sweep, or the Gateway's cluster-wide
// one, which verifies every peer's shards the same way. interval must be
// positive; each sleep is drawn uniformly from [interval/2, 3*interval/2).
func StartScrubber(store Backend, interval time.Duration, logf Logf) *Scrubber {
	sc := &Scrubber{
		store:    store,
		interval: interval,
		logf:     logf,
		kick:     make(chan struct{}, 1),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	sc.ctx, sc.cancel = context.WithCancel(context.Background())
	sc.lastDone.Store(time.Now().UnixNano())
	go sc.loop()
	return sc
}

// LastCompleted returns when the last sweep finished (the scrubber's start
// time until the first sweep lands).
func (sc *Scrubber) LastCompleted() time.Time {
	return time.Unix(0, sc.lastDone.Load())
}

// Interval returns the configured (pre-jitter) sweep interval.
func (sc *Scrubber) Interval() time.Duration { return sc.interval }

// Kick requests an immediate sweep (coalesced if one is already pending).
func (sc *Scrubber) Kick() {
	select {
	case sc.kick <- struct{}{}:
	default:
	}
}

// Stop terminates the loop: the in-flight sweep (if any) is canceled —
// it stops between per-object heals, never mid-shard — and Stop returns
// once the loop has exited. Safe to call once.
func (sc *Scrubber) Stop() {
	close(sc.stop)
	sc.cancel()
	<-sc.done
}

// jittered returns the next sleep: interval ±50%, uniformly.
func (sc *Scrubber) jittered() time.Duration {
	return sc.interval/2 + time.Duration(rand.Int63n(int64(sc.interval)))
}

func (sc *Scrubber) loop() {
	defer close(sc.done)
	timer := time.NewTimer(sc.jittered())
	defer timer.Stop()
	for {
		select {
		case <-sc.stop:
			return
		case <-sc.kick:
		case <-timer.C:
		}
		// Labeled so CPU profiles split scrub decode/repair work from
		// client traffic.
		var rep ScrubReport
		pprof.Do(sc.ctx, pprof.Labels("op", "scrub"), func(ctx context.Context) {
			rep = sc.store.ScrubAll(ctx)
		})
		sc.lastDone.Store(time.Now().UnixNano())
		if healed := rep.ShardsHealed(); healed > 0 {
			sc.logf.printf("ecserver: scrub healed %d shard(s) across %d object(s)", healed, len(rep.Healed))
		}
		for name, msg := range rep.Errors {
			sc.logf.printf("ecserver: scrub %q: %s", name, msg)
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(sc.jittered())
	}
}

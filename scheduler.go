package gemmec

import (
	"time"

	"gemmec/internal/sched"
)

// Scheduler is a shared encode/decode worker pool: one bounded set of
// kernel goroutines that many concurrent EncodeStream/DecodeStream calls
// submit per-stripe work to, with per-stream FIFO queues, fair
// round-robin dispatch (a stream with a deep backlog cannot starve a
// stream with one stripe), and optional admission control for load
// shedding. It is the serving-stack shape the paper argues EC libraries
// should borrow from ML systems: workers are a process-wide resource,
// not a per-request detail.
//
// Construct one per process (or per store) with NewScheduler, pass it to
// streams with WithStreamScheduler, and Close it on shutdown. It is the
// only source of stream workers: a stream call without a Scheduler runs
// inline on the caller's goroutine, one stripe at a time. Shard output is
// byte-identical either way.
type Scheduler struct {
	s *sched.Scheduler
}

// ErrOverloaded is returned by Scheduler.Admit when every admission slot
// is taken; errors.Is(err, ErrOverloaded) identifies it. A server maps it
// to HTTP 429 with a Retry-After hint.
var ErrOverloaded = sched.ErrOverloaded

// SchedulerConfig sizes a Scheduler.
type SchedulerConfig struct {
	// Workers is the pool size: how many stripes are encoded or
	// reconstructed concurrently across ALL streams sharing the pool.
	// 0 selects the default, GOMAXPROCS capped at 8: the one pool-size
	// default of the module — Store, Gateway and eccli pass their 0 here.
	Workers int
	// MaxStreams bounds how many streams may hold an admission slot at
	// once (see Admit). 0 disables admission control. Streams do not need
	// an admission slot to run — admission is the serving layer's gate,
	// taken before the stream starts, not a pipeline requirement.
	MaxStreams int
	// OnWait, when non-nil, observes each stripe task's scheduler wait
	// (Submit to execution start). Point it at a histogram.
	OnWait func(time.Duration)
}

// NewScheduler builds a shared pool and starts its workers: cfg.Workers of
// them, or GOMAXPROCS capped at 8 when that is 0.
func NewScheduler(cfg SchedulerConfig) *Scheduler {
	return &Scheduler{s: sched.New(sched.Config{
		Workers:    cfg.Workers,
		MaxStreams: cfg.MaxStreams,
		OnWait:     cfg.OnWait,
	})}
}

// Close drains queued work and stops the pool. Streams still running
// fall back to executing their remaining stripes synchronously, so Close
// during shutdown cannot hang them.
func (s *Scheduler) Close() { s.s.Close() }

// Admit reserves one of MaxStreams admission slots, failing fast with an
// error wrapping ErrOverloaded when the pool is saturated. Pair every
// successful Admit with exactly one Release. With MaxStreams 0 it always
// succeeds.
func (s *Scheduler) Admit() error { return s.s.Admit() }

// Release returns an admission slot taken by Admit.
func (s *Scheduler) Release() { s.s.Release() }

// Workers returns the pool size.
func (s *Scheduler) Workers() int { return s.s.Workers() }

// MaxStreams returns the admission bound (0 = unlimited).
func (s *Scheduler) MaxStreams() int { return s.s.MaxStreams() }

// QueueDepth returns the stripe tasks queued (submitted, not yet
// started) across all streams right now.
func (s *Scheduler) QueueDepth() int { return s.s.QueueDepth() }

// Admitted returns the admission slots currently held.
func (s *Scheduler) Admitted() int { return s.s.Admitted() }

// Shed returns how many Admit calls have been refused since construction.
func (s *Scheduler) Shed() int64 { return s.s.Shed() }

// IdleFor reports how long the pool has been idle: zero while any stripe
// task is queued or any admission slot is held, otherwise the time since
// work last finished. Background maintenance (the serving-loop autotuner)
// gates on this so it never competes with live traffic.
func (s *Scheduler) IdleFor() time.Duration { return s.s.IdleFor() }

// WithStreamScheduler runs the stream's kernel stage on the shared pool
// instead of inline on the caller's goroutine, overlapped with a reader
// and an in-order writer. The stream creates one FIFO queue on the pool
// and closes it before returning; its stripe ring (the in-flight bound) is
// two buffers per pool worker.
func WithStreamScheduler(s *Scheduler) StreamOption {
	return func(c *streamConfig) error {
		if s == nil {
			return errNilScheduler
		}
		c.sched = s
		return nil
	}
}

// Package sched is the server-wide encode/decode scheduler: one bounded
// pool of kernel workers that every streaming request submits per-stripe
// work to, instead of each request spinning up (and tearing down) its own
// worker goroutine set. The design borrows the shape of an ML serving
// stack — a fixed executor pool fed by per-request queues — because that
// is where the paper's thesis points: throughput at high concurrency
// comes from amortizing setup across many small operations, not from
// giving every operation its own machinery.
//
// Three properties matter and each is load-bearing:
//
//   - Bounded workers. The pool spawns Config.Workers goroutines once, at
//     construction. A thousand concurrent requests share those workers;
//     goroutine count no longer scales with (requests × per-request
//     workers), and the kernel working set stays cache-resident.
//
//   - Fair dispatch. Each stream (one encode or decode run) owns a FIFO
//     queue; workers serve the queues round-robin, one task per visit. A
//     stream with a thousand queued stripes cannot starve a stream with
//     one: every active stream receives ~1/Nth of the pool regardless of
//     backlog depth. Within a stream, tasks run in submission order
//     (started in order; they may complete out of order across workers,
//     which the pipeline's in-order writer already absorbs).
//
//   - Admission control. Admit reserves one of a bounded number of
//     stream slots; past the bound it fails fast with ErrOverloaded so
//     the serving layer can shed load (429 + Retry-After) instead of
//     queueing unboundedly and timing everyone out. Queue depth, admitted
//     streams and per-task wait are observable via hooks and accessors.
package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"
)

// ErrOverloaded is returned by Admit when every admission slot is taken.
// The serving layer maps it to HTTP 429 with a Retry-After hint.
var ErrOverloaded = errors.New("sched: scheduler at admission limit")

// Config sizes a scheduler.
type Config struct {
	// Workers is the number of pool goroutines executing stripe tasks.
	// 0 selects GOMAXPROCS capped at 8.
	Workers int
	// MaxStreams bounds how many streams may be admitted concurrently
	// (Admit slots). 0 disables admission control: Admit always succeeds.
	// Queues created without Admit are not counted against the bound —
	// admission is the serving layer's gate, not the pipeline's.
	MaxStreams int
	// OnWait, when non-nil, observes each task's scheduler wait: the time
	// from Submit to the moment a worker starts running it. The serving
	// layer points this at a histogram.
	OnWait func(time.Duration)
}

// task is one unit of queued work plus its enqueue time for wait
// accounting.
type task struct {
	fn  func()
	enq time.Time
}

// Queue is one stream's FIFO of stripe tasks. Create with NewQueue,
// feed with Submit, and Close when the stream is done — Close blocks
// until every submitted task has finished running, which is what makes
// it safe for the stream to release its ring buffers afterwards.
type Queue struct {
	s *Scheduler

	// Guarded by s.mu. tasks is a head-indexed FIFO reused across
	// drain/refill cycles so steady-state submission does not allocate.
	tasks   []task
	head    int
	pending int // submitted tasks not yet finished running
	inRing  bool
	closed  bool
	done    *sync.Cond // signaled when pending drops to 0
}

// Scheduler is the shared pool. Construct with New; Close drains and
// stops the workers.
type Scheduler struct {
	cfg Config

	mu       sync.Mutex
	work     *sync.Cond // signaled when a task is queued or on Close
	ring     []*Queue   // queues holding runnable tasks, served round-robin
	next     int        // ring cursor
	queued   int        // tasks queued across all streams
	admitted int        // admission slots in use
	shed     int64      // Admit calls refused
	closed   bool

	wg sync.WaitGroup
}

// New builds the scheduler and starts its worker pool.
func New(cfg Config) *Scheduler {
	if cfg.Workers <= 0 {
		cfg.Workers = min(runtime.GOMAXPROCS(0), 8)
	}
	s := &Scheduler{cfg: cfg}
	s.work = sync.NewCond(&s.mu)
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// Workers returns the pool size.
func (s *Scheduler) Workers() int { return s.cfg.Workers }

// MaxStreams returns the admission bound (0 = unlimited).
func (s *Scheduler) MaxStreams() int { return s.cfg.MaxStreams }

// QueueDepth returns the number of tasks currently queued (not yet
// started) across all streams — the quantity the admission bound protects
// and the /metricsz gauge reports.
func (s *Scheduler) QueueDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queued
}

// Admitted returns the admission slots currently held.
func (s *Scheduler) Admitted() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.admitted
}

// Shed returns how many Admit calls have been refused since construction.
func (s *Scheduler) Shed() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shed
}

// Admit reserves one admission slot, failing fast with ErrOverloaded when
// all MaxStreams slots are taken. Pair every successful Admit with exactly
// one Release. With MaxStreams 0 it always succeeds.
func (s *Scheduler) Admit() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cfg.MaxStreams > 0 && s.admitted >= s.cfg.MaxStreams {
		s.shed++
		return fmt.Errorf("%w (%d streams admitted, %d tasks queued)",
			ErrOverloaded, s.admitted, s.queued)
	}
	s.admitted++
	return nil
}

// Release returns an admission slot taken by Admit.
func (s *Scheduler) Release() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.admitted > 0 {
		s.admitted--
	}
}

// NewQueue registers a new stream queue on the pool.
func (s *Scheduler) NewQueue() *Queue {
	q := &Queue{s: s}
	q.done = sync.NewCond(&s.mu)
	return q
}

// Submit enqueues one task for the pool. Tasks of one queue start in
// submission order; tasks of different queues interleave fairly. After
// the scheduler has been closed, the task runs synchronously on the
// caller's goroutine so late submissions during shutdown cannot hang.
func (q *Queue) Submit(fn func()) {
	s := q.s
	s.mu.Lock()
	if q.closed {
		s.mu.Unlock()
		panic("sched: Submit on closed Queue")
	}
	if s.closed {
		q.pending++
		s.mu.Unlock()
		fn()
		s.mu.Lock()
		q.pending--
		if q.pending == 0 {
			q.done.Broadcast()
		}
		s.mu.Unlock()
		return
	}
	if q.head > 0 && len(q.tasks) == cap(q.tasks) {
		// Compact the consumed head instead of growing: a long stream that
		// never fully drains its queue would otherwise reallocate the
		// backing array O(log stripes) times. Backlog is bounded by the
		// pipeline's ring depth, so after compaction the append fits and
		// steady-state submission is allocation-free.
		n := copy(q.tasks, q.tasks[q.head:])
		q.tasks = q.tasks[:n]
		q.head = 0
	}
	q.tasks = append(q.tasks, task{fn: fn, enq: time.Now()})
	q.pending++
	s.queued++
	if !q.inRing {
		s.ring = append(s.ring, q)
		q.inRing = true
	}
	s.mu.Unlock()
	s.work.Signal()
}

// Wait blocks until every task submitted so far has finished running.
func (q *Queue) Wait() {
	s := q.s
	s.mu.Lock()
	for q.pending > 0 {
		q.done.Wait()
	}
	s.mu.Unlock()
}

// Close waits for all submitted tasks to finish and retires the queue.
// It is safe to call once; Submit after Close panics.
func (q *Queue) Close() {
	q.Wait()
	q.s.mu.Lock()
	q.closed = true
	q.s.mu.Unlock()
}

// Close drains every queued task and stops the workers. Safe to call
// once; queues may still Wait/Close afterwards.
func (s *Scheduler) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.work.Broadcast()
	s.wg.Wait()
}

// pop selects the next runnable task round-robin across stream queues.
// Caller holds s.mu; returns ok=false only when the scheduler is closed
// and fully drained.
func (s *Scheduler) pop() (q *Queue, t task, ok bool) {
	for {
		for !s.closed && len(s.ring) == 0 {
			s.work.Wait()
		}
		if len(s.ring) == 0 {
			return nil, task{}, false // closed and drained
		}
		if s.next >= len(s.ring) {
			s.next = 0
		}
		q = s.ring[s.next]
		t = q.tasks[q.head]
		q.tasks[q.head] = task{} // drop the closure reference
		q.head++
		if q.head == len(q.tasks) {
			// Queue drained: recycle its backing array and leave the ring.
			q.tasks = q.tasks[:0]
			q.head = 0
			q.inRing = false
			s.ring = append(s.ring[:s.next], s.ring[s.next+1:]...)
			// s.next now points at the following queue; no advance needed.
		} else {
			s.next++
		}
		s.queued--
		return q, t, true
	}
}

func (s *Scheduler) worker() {
	defer s.wg.Done()
	// The label is applied once per worker goroutine, so CPU profiles
	// attribute all pooled encode/decode kernel time to the scheduler
	// rather than smearing it across whichever requests happened to
	// enqueue the stripes.
	pprof.Do(context.Background(), pprof.Labels("op", "sched", "stage", "worker"),
		func(context.Context) { s.run() })
}

func (s *Scheduler) run() {
	s.mu.Lock()
	for {
		q, t, ok := s.pop()
		if !ok {
			s.mu.Unlock()
			return
		}
		s.mu.Unlock()
		if s.cfg.OnWait != nil {
			s.cfg.OnWait(time.Since(t.enq))
		}
		t.fn()
		s.mu.Lock()
		q.pending--
		if q.pending == 0 {
			q.done.Broadcast()
		}
	}
}

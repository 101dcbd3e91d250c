package sched

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestFIFOWithinStream: one stream's tasks start in submission order. One
// worker, because a task records itself after its pop and outside s.mu, so
// with several workers the recorded order races on a multi-core box even
// though the dequeue order is exact.
func TestFIFOWithinStream(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	q := s.NewQueue()
	var mu sync.Mutex
	var started []int
	for i := 0; i < 100; i++ {
		q.Submit(func() {
			mu.Lock()
			started = append(started, i)
			mu.Unlock()
		})
	}
	q.Close()
	for i, v := range started {
		if v != i {
			t.Fatalf("task %d started at position %d; want submission order", v, i)
		}
	}
}

// TestFairnessNoStarvation is the scheduler-level form of "N slow GETs
// cannot starve a PUT": four queues pre-load a huge backlog of slow tasks,
// then a fifth queue submits a small burst. With FIFO-across-everything the
// burst would run after the entire backlog; with round-robin dispatch it
// must finish after roughly (burst × streams) task slots.
func TestFairnessNoStarvation(t *testing.T) {
	const (
		slowStreams = 4
		backlogEach = 500
		putTasks    = 10
	)
	var executed atomic.Int64 // total tasks run before the PUT completed

	s := New(Config{Workers: 1}) // single worker makes the schedule exact
	defer s.Close()

	slow := make([]*Queue, slowStreams)
	gate := make(chan struct{}) // holds the worker until all queues are loaded
	first := s.NewQueue()
	first.Submit(func() { <-gate })
	for i := range slow {
		slow[i] = s.NewQueue()
		for j := 0; j < backlogEach; j++ {
			slow[i].Submit(func() { executed.Add(1) })
		}
	}
	put := s.NewQueue()
	var putDone atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	for j := 0; j < putTasks; j++ {
		last := j == putTasks-1
		put.Submit(func() {
			executed.Add(1)
			if last {
				putDone.Store(executed.Load())
				wg.Done()
			}
		})
	}
	close(gate)
	wg.Wait()

	// Round-robin serves each of the 5 loaded queues one task per pass, so
	// the PUT's 10th task runs within ~10 passes ≈ 50-60 tasks. Give slack
	// but stay far below the 2000-task backlog a FIFO would impose.
	if n := putDone.Load(); n > int64((slowStreams+1)*putTasks*2) {
		t.Fatalf("PUT finished after %d tasks executed; fair dispatch should bound it near %d",
			n, (slowStreams+1)*putTasks)
	}
	for _, q := range slow {
		q.Close()
	}
	put.Close()
	first.Close()
}

// TestAdmissionControl: slots bound admitted streams, excess Admits fail
// with ErrOverloaded and count as shed, Release reopens the door.
func TestAdmissionControl(t *testing.T) {
	s := New(Config{Workers: 1, MaxStreams: 2})
	defer s.Close()
	if err := s.Admit(); err != nil {
		t.Fatal(err)
	}
	if err := s.Admit(); err != nil {
		t.Fatal(err)
	}
	err := s.Admit()
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("third Admit: got %v, want ErrOverloaded", err)
	}
	if got := s.Shed(); got != 1 {
		t.Fatalf("Shed() = %d, want 1", got)
	}
	if got := s.Admitted(); got != 2 {
		t.Fatalf("Admitted() = %d, want 2", got)
	}
	s.Release()
	if err := s.Admit(); err != nil {
		t.Fatalf("Admit after Release: %v", err)
	}
	s.Release()
	s.Release()
}

// TestQueueDepthAccounting: queued reflects submitted-not-yet-started
// tasks and drains back to zero.
func TestQueueDepthAccounting(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	gate := make(chan struct{})
	q := s.NewQueue()
	q.Submit(func() { <-gate }) // occupies the only worker
	for i := 0; i < 9; i++ {
		q.Submit(func() {})
	}
	// The first task may or may not have been dequeued yet; the other 9
	// must still be queued.
	if d := s.QueueDepth(); d < 9 || d > 10 {
		t.Fatalf("QueueDepth() = %d, want 9 or 10", d)
	}
	close(gate)
	q.Close()
	if d := s.QueueDepth(); d != 0 {
		t.Fatalf("QueueDepth() after drain = %d, want 0", d)
	}
}

// TestWaitBlocksUntilDone: Close returns only after every task ran.
func TestWaitBlocksUntilDone(t *testing.T) {
	s := New(Config{Workers: 3})
	defer s.Close()
	var ran atomic.Int64
	q := s.NewQueue()
	for i := 0; i < 200; i++ {
		q.Submit(func() { ran.Add(1) })
	}
	q.Close()
	if got := ran.Load(); got != 200 {
		t.Fatalf("after Close, %d of 200 tasks ran", got)
	}
}

// TestOnWaitHook: the wait hook fires once per task with a sane duration.
func TestOnWaitHook(t *testing.T) {
	var calls atomic.Int64
	s := New(Config{Workers: 2, OnWait: func(d time.Duration) {
		if d < 0 {
			t.Errorf("negative wait %v", d)
		}
		calls.Add(1)
	}})
	q := s.NewQueue()
	for i := 0; i < 50; i++ {
		q.Submit(func() {})
	}
	q.Close()
	s.Close()
	if got := calls.Load(); got != 50 {
		t.Fatalf("OnWait fired %d times, want 50", got)
	}
}

// TestSubmitAfterSchedulerClose: late submissions run synchronously
// instead of hanging the caller.
func TestSubmitAfterSchedulerClose(t *testing.T) {
	s := New(Config{Workers: 1})
	q := s.NewQueue()
	s.Close()
	ran := false
	q.Submit(func() { ran = true })
	if !ran {
		t.Fatal("post-Close Submit did not run synchronously")
	}
	q.Close()
}

// TestConcurrentStreams: many goroutines each run a full
// queue-submit-close cycle at once; every task must run exactly once.
// Primarily a -race target.
func TestConcurrentStreams(t *testing.T) {
	s := New(Config{Workers: 4})
	defer s.Close()
	const streams, tasks = 32, 64
	var total atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < streams; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q := s.NewQueue()
			var local atomic.Int64
			for j := 0; j < tasks; j++ {
				q.Submit(func() {
					local.Add(1)
					total.Add(1)
				})
			}
			q.Close()
			if got := local.Load(); got != tasks {
				t.Errorf("stream ran %d of %d tasks", got, tasks)
			}
		}()
	}
	wg.Wait()
	if got := total.Load(); got != streams*tasks {
		t.Fatalf("ran %d tasks, want %d", got, streams*tasks)
	}
}

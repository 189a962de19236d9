package sched

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestBarrierReuse(t *testing.T) {
	const P, rounds = 4, 50
	b := NewBarrier(P)
	var hits atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < P; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				hits.Add(1)
				if !b.Wait() {
					t.Error("barrier aborted unexpectedly")
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := hits.Load(); got != P*rounds {
		t.Fatalf("hits = %d, want %d", got, P*rounds)
	}
}

func TestBarrierAbortReleasesWaiters(t *testing.T) {
	b := NewBarrier(3)
	done := make(chan bool, 2)
	for i := 0; i < 2; i++ {
		go func() { done <- b.Wait() }()
	}
	time.Sleep(10 * time.Millisecond)
	b.Abort()
	for i := 0; i < 2; i++ {
		select {
		case ok := <-done:
			if ok {
				t.Fatal("aborted Wait returned true")
			}
		case <-time.After(time.Second):
			t.Fatal("waiter not released by Abort")
		}
	}
	if b.Wait() {
		t.Fatal("Wait on a broken barrier returned true")
	}
}

func TestBarrierSetBreaksLateAdds(t *testing.T) {
	var bs BarrierSet
	early := NewBarrier(2)
	bs.Add(early)
	bs.Abort()
	if early.Wait() {
		t.Fatal("early barrier not broken by set abort")
	}
	late := NewBarrier(2)
	bs.Add(late)
	if late.Wait() {
		t.Fatal("late-added barrier not broken on arrival")
	}
}

func TestErrOnceLatchesFirst(t *testing.T) {
	var o ErrOnce
	if o.Failed() || o.Get() != nil {
		t.Fatal("fresh ErrOnce reports failure")
	}
	o.Set(nil)
	if o.Failed() {
		t.Fatal("Set(nil) latched")
	}
	e1, e2 := errors.New("first"), errors.New("second")
	o.Set(e1)
	o.Set(e2)
	if !o.Failed() || o.Get() != e1 {
		t.Fatalf("Get() = %v, want first error", o.Get())
	}
}

func closed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

func TestErrOnceDone(t *testing.T) {
	// Done taken before the first Set, and Set before the first Done: the
	// zero value must behave the same either way.
	var early, late ErrOnce
	done := early.Done()
	early.Set(nil)
	late.Set(nil)
	if closed(done) || closed(late.Done()) {
		t.Fatal("Set(nil) closed Done")
	}
	e1 := errors.New("first")
	early.Set(e1)
	late.Set(e1)
	if !closed(done) || !closed(early.Done()) || !closed(late.Done()) {
		t.Fatal("Done not closed by the first non-nil Set")
	}
	// Later Sets neither re-close (which would panic) nor replace the error.
	early.Set(errors.New("second"))
	if early.Get() != e1 {
		t.Fatalf("Get() = %v, want first error", early.Get())
	}
}

func TestErrOnceConcurrent(t *testing.T) {
	var o ErrOnce
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			done := o.Done()
			if i%2 == 0 {
				o.Set(fmt.Errorf("worker %d", i))
			}
			o.Failed()
			<-done // released by whichever Set latched first
		}()
	}
	wg.Wait()
	if !o.Failed() || o.Get() == nil || !closed(o.Done()) {
		t.Fatal("no error latched after concurrent Sets")
	}
}

func TestGuardContainsPanic(t *testing.T) {
	var o ErrOnce
	torn := false
	Guard(&o, func() { torn = true }, 7, func() { panic("boom") })
	if !torn {
		t.Fatal("teardown not invoked on panic")
	}
	err := o.Get()
	if !errors.Is(err, ErrWorkerPanic) {
		t.Fatalf("err = %v, want ErrWorkerPanic", err)
	}
}

func TestFreeQueueTerminationBroadcast(t *testing.T) {
	const P = 4
	chans := make([]chan *int, P)
	for i := range chans {
		chans[i] = make(chan *int, 1)
	}
	q := NewFreeQueue(P, chans)
	q.Put(0, 1)
	q.Put(2)
	select {
	case <-chans[0]:
		t.Fatal("broadcast before all workers idle")
	default:
	}
	q.Put(3)
	for i, ch := range chans {
		select {
		case g := <-ch:
			if g != nil {
				t.Fatalf("worker %d got non-sentinel assignment", i)
			}
		case <-time.After(time.Second):
			t.Fatalf("worker %d missed termination broadcast", i)
		}
	}
	if got := q.Drain(); len(got) != 4 {
		t.Fatalf("Drain() = %v, want all 4 ids", got)
	}
}

func TestFreeQueueAbort(t *testing.T) {
	chans := []chan *int{make(chan *int, 1)}
	q := NewFreeQueue(1, chans)
	q.Abort()
	q.Abort() // idempotent
	select {
	case <-q.AbortCh():
	default:
		t.Fatal("AbortCh not closed after Abort")
	}
	q.Put(0) // must not broadcast after abort
	select {
	case <-chans[0]:
		t.Fatal("termination broadcast after abort")
	default:
	}
}

func TestRunCoversAllTasks(t *testing.T) {
	for _, procs := range []int{1, 2, 4, 9} {
		const n = 37
		seen := make([]atomic.Int32, n)
		if err := Run(procs, n, nil, func(w, idx int) error {
			seen[idx].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		for i := range seen {
			if got := seen[i].Load(); got != 1 {
				t.Fatalf("procs=%d: task %d ran %d times", procs, i, got)
			}
		}
	}
}

func TestRunLatchesFirstErrorAndAborts(t *testing.T) {
	const procs = 4
	boom := errors.New("boom")
	var aborts atomic.Int32
	var started atomic.Int32
	aborted := make(chan struct{})
	err := Run(procs, 100, func() {
		aborts.Add(1)
		close(aborted)
	}, func(w, idx int) error {
		started.Add(1)
		if idx == 3 {
			return fmt.Errorf("task %d: %w", idx, boom)
		}
		if idx > 3 {
			// Hold later tasks until the failure has latched, so the other
			// workers cannot drain the queue before task 3 fails.
			<-aborted
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if got := aborts.Load(); got != 1 {
		t.Fatalf("abort fired %d times, want exactly once", got)
	}
	// Tasks 0..3 plus at most one in flight per worker when the latch set.
	if got := started.Load(); got > 4+procs {
		t.Fatalf("%d tasks started, want <= %d: tasks ran after the failure latched", got, 4+procs)
	}
}

func TestRunContainsTaskPanic(t *testing.T) {
	var aborts atomic.Int32
	err := Run(3, 20, func() { aborts.Add(1) }, func(w, idx int) error {
		if idx == 5 {
			panic("task blew up")
		}
		return nil
	})
	if !errors.Is(err, ErrWorkerPanic) {
		t.Fatalf("err = %v, want ErrWorkerPanic", err)
	}
	if got := aborts.Load(); got != 1 {
		t.Fatalf("abort fired %d times, want exactly once", got)
	}
}

func TestRunZeroAndClampedInputs(t *testing.T) {
	if err := Run(4, 0, nil, func(w, idx int) error { return nil }); err != nil {
		t.Fatalf("n=0: %v", err)
	}
	var ran atomic.Int32
	if err := Run(0, 3, nil, func(w, idx int) error { ran.Add(1); return nil }); err != nil {
		t.Fatalf("procs=0: %v", err)
	}
	if ran.Load() != 3 {
		t.Fatalf("procs=0 ran %d tasks, want 3", ran.Load())
	}
}

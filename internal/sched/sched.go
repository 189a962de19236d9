// Package sched provides the shared-memory scheduling primitives the
// build engines and the forest trainer are made of: abortable counting
// barriers (the paper's horizontal bars between the E, W and S phases), a
// first-error latch whose Done channel releases signal waits, panic
// containment for worker goroutines and the one guarded launcher, the paper's
// FREE queue of idle processors (generalized over the task type), and a
// whole-task farm that schedules independent coarse tasks — whole trees —
// across a fixed worker pool.
//
// The package is the SUBTREE machinery of internal/core refactored out so
// that tree-level parallelism (forests) and node-level parallelism (the
// SMP schemes) share one set of semantics: a panicking worker latches
// ErrWorkerPanic, tears down every structure a peer could be blocked on,
// and the computation unwinds promptly instead of deadlocking.
package sched

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// ErrWorkerPanic marks a computation failure caused by a recovered panic
// in a worker goroutine. The panic is contained: peers are released from
// every barrier, condition wait and FREE-queue channel, and the scheduler
// returns this error instead of crashing the process.
var ErrWorkerPanic = errors.New("sched: worker panic")

// ErrOnce latches the first error reported by any worker. Its zero value
// is ready to use.
type ErrOnce struct {
	mu     sync.Mutex
	err    error
	failed atomic.Bool
	done   chan struct{}
}

// Set latches err if it is the first non-nil error reported, closing the
// Done channel.
func (o *ErrOnce) Set(err error) {
	if err == nil {
		return
	}
	o.mu.Lock()
	if o.err == nil {
		o.err = err
		o.failed.Store(true)
		close(o.doneLocked())
	}
	o.mu.Unlock()
}

// Failed reports whether any error has been latched.
func (o *ErrOnce) Failed() bool { return o.failed.Load() }

// Done returns a channel closed by the first non-nil Set, so a worker
// blocked on a peer's signal can select on the failure too.
func (o *ErrOnce) Done() <-chan struct{} {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.doneLocked()
}

func (o *ErrOnce) doneLocked() chan struct{} {
	if o.done == nil {
		o.done = make(chan struct{})
	}
	return o.done
}

// Get returns the latched error, nil if none.
func (o *ErrOnce) Get() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.err
}

// Guard runs fn with panic containment for worker id: a panic is converted
// into an ErrWorkerPanic on ferr, then teardown releases every
// synchronization structure a peer could be blocked on (barriers, abort
// channels, the FREE queue), so the surviving workers observe the failure
// and unwind instead of waiting forever for the dead worker.
func Guard(ferr *ErrOnce, teardown func(), id int, fn func()) {
	defer func() {
		if p := recover(); p != nil {
			ferr.Set(fmt.Errorf("%w: worker %d: %v\n%s", ErrWorkerPanic, id, p, debug.Stack()))
			if teardown != nil {
				teardown()
			}
		}
	}()
	fn()
}

// Spawn runs fn(id) for id in [0,p) on p goroutines, each under Guard
// with teardown, waits for all of them and returns the first error latched
// on ferr. It is the one worker launcher of every scheduler.
func Spawn(p int, ferr *ErrOnce, teardown func(), fn func(id int)) error {
	var wg sync.WaitGroup
	for id := 0; id < p; id++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			Guard(ferr, teardown, id, func() { fn(id) })
		}()
	}
	wg.Wait()
	return ferr.Get()
}

// Run schedules n independent coarse tasks over procs workers — the farm
// pattern, with tasks grabbed dynamically so stragglers do not serialize
// the tail. task is called as task(worker, idx) for idx in [0,n); the
// first error (or contained panic) latches, remaining tasks are skipped,
// and abort — when non-nil — fires exactly once on the first failure so
// the caller can cancel in-flight tasks (e.g. a build context). Run
// returns the first error.
func Run(procs, n int, abort func(), task func(worker, idx int) error) error {
	if n <= 0 {
		return nil
	}
	var (
		ferr ErrOnce
		next atomic.Int64
		once sync.Once
	)
	fail := func() {
		if abort != nil {
			once.Do(abort)
		}
	}
	return Spawn(max(1, min(procs, n)), &ferr, fail, func(w int) {
		for {
			idx := int(next.Add(1) - 1)
			if idx >= n || ferr.Failed() {
				return
			}
			if err := task(w, idx); err != nil {
				ferr.Set(err)
				fail()
				return
			}
		}
	})
}

package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/alist"
)

// failingStore wraps a MemStore and fails every operation after a budget of
// successful calls, exercising the error paths of every scheme's driver:
// workers must propagate the first error, keep the synchronization protocol
// alive (no deadlock at barriers or condition waits), and Build must return
// the error.
type failingStore struct {
	*alist.MemStore
	budget atomic.Int64
}

var errInjected = errors.New("injected storage failure")

func (f *failingStore) take() error {
	if f.budget.Add(-1) < 0 {
		return errInjected
	}
	return nil
}

func (f *failingStore) Reserve(attr, slot int, n int) (int64, error) {
	if err := f.take(); err != nil {
		return 0, err
	}
	return f.MemStore.Reserve(attr, slot, n)
}

func (f *failingStore) WriteAt(attr, slot int, off int64, recs []alist.Record) error {
	if err := f.take(); err != nil {
		return err
	}
	return f.MemStore.WriteAt(attr, slot, off, recs)
}

func (f *failingStore) Scan(attr, slot int, off int64, n int, fn func([]alist.Record) error) error {
	if err := f.take(); err != nil {
		return err
	}
	return f.MemStore.Scan(attr, slot, off, n, fn)
}

func (f *failingStore) Reset(attr, slot int) error {
	if err := f.take(); err != nil {
		return err
	}
	return f.MemStore.Reset(attr, slot)
}

// TestInjectedStorageFailures drives every algorithm with storage that
// fails at assorted points of the build. Every run must terminate promptly
// with the injected error (or, for generous budgets, succeed).
func TestInjectedStorageFailures(t *testing.T) {
	tbl := synthTable(t, 7, 9, 300, 21)
	for _, s := range listSchemes() {
		for _, budget := range []int64{0, 1, 5, 17, 60, 201, 1000} {
			name := fmt.Sprintf("%v/budget%d", s, budget)
			t.Run(name, func(t *testing.T) {
				st := &failingStore{MemStore: alist.NewMemStore(9, 64)}
				st.budget.Store(budget)
				cfg := Config{Algorithm: s.alg, SubtreeInner: s.inner, Procs: 3, MaxDepth: 6}
				cfg.storeOverride = st

				done := make(chan error, 1)
				go func() {
					_, _, err := Build(tbl, cfg)
					done <- err
				}()
				select {
				case err := <-done:
					if err != nil && !errors.Is(err, errInjected) {
						t.Fatalf("unexpected error: %v", err)
					}
				case <-time.After(30 * time.Second):
					t.Fatal("build hung after injected failure")
				}
			})
		}
	}
}

package core

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/alist"
	"repro/internal/dataset"
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

// shiftingStore changes one record of attribute attr's root list after E
// has read it: the first eScans scans that start at the list's first
// record see it as written, every later one sees that record's value as
// +Inf. Record 0 holds the list's smallest value, so when attr wins with a
// continuous split the record moves from the left child to the right one
// between E and W.
type shiftingStore struct {
	alist.Store
	attr     int
	eScans   int64
	rootSlot atomic.Int64 // slot of attr's first Reserve, +1 (0 = none yet)
	scans    atomic.Int64
}

func (s *shiftingStore) Reserve(attr, slot int, n int) (int64, error) {
	if attr == s.attr {
		s.rootSlot.CompareAndSwap(0, int64(slot)+1)
	}
	return s.Store.Reserve(attr, slot, n)
}

func (s *shiftingStore) Scan(attr, slot int, off int64, n int, fn func([]alist.Record) error) error {
	if attr != s.attr || off != 0 || int64(slot)+1 != s.rootSlot.Load() || s.scans.Add(1) <= s.eScans {
		return s.Store.Scan(attr, slot, off, n, fn)
	}
	first := true
	return s.Store.Scan(attr, slot, off, n, func(recs []alist.Record) error {
		if first {
			first = false
			recs = append([]alist.Record(nil), recs...)
			recs[0].Value = math.Inf(1)
		}
		return fn(recs)
	})
}

// TestWinnerScanCountMismatchFails changes one record of the winning
// attribute between E and W. Every list engine's W phase must notice that
// the winner scan's child counts no longer match the candidate's and fail
// the build, RECPAR's chunk-parallel W included.
func TestWinnerScanCountMismatchFails(t *testing.T) {
	tbl := synthTable(t, 1, 9, 400, 3)
	ref, _, err := Build(tbl, Config{Algorithm: Serial})
	if err != nil {
		t.Fatal(err)
	}
	win := ref.Root.Split
	if win == nil || tbl.Schema().Attrs[win.Attr].Kind != dataset.Continuous {
		t.Fatalf("root split %+v, want a continuous winner", win)
	}
	for _, s := range listSchemes() {
		t.Run(s.String(), func(t *testing.T) {
			// RECPAR's continuous E reads each chunk twice (pass A, pass B).
			eScans := int64(1)
			if s.alg == RecPar {
				eScans = 2
			}
			cfg := Config{Algorithm: s.alg, SubtreeInner: s.inner, Procs: 2}
			cfg.StoreWrap = func(st alist.Store) alist.Store {
				return &shiftingStore{Store: st, attr: win.Attr, eScans: eScans}
			}
			_, _, err := Build(tbl, cfg)
			if err == nil || !strings.Contains(err.Error(), "candidate promised") {
				t.Fatalf("build over a list that changed between E and W: err = %v, want the winner count check", err)
			}
		})
	}
}

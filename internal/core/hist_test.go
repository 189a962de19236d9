package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
	"repro/internal/synth"
	"repro/internal/tree"
)

// TestHistBuildsWorkingTree checks the basic contract: Hist grows a tree
// that classifies its own training data well and whose node counts are
// internally consistent.
func TestHistBuildsWorkingTree(t *testing.T) {
	tbl := synthTable(t, 1, 9, 8000, 11)
	tr, tm, err := Build(tbl, Config{Algorithm: Hist, Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Root.IsLeaf() {
		t.Fatal("F1 root did not split")
	}
	if acc := tr.Accuracy(tbl); acc < 0.95 {
		t.Fatalf("training accuracy %.3f, want >= 0.95", acc)
	}
	if tm.Build <= 0 {
		t.Fatal("no build time recorded")
	}
	if tm.Sort != 0 {
		t.Fatalf("Hist recorded a sort phase (%v); it has nothing to sort", tm.Sort)
	}
	var walk func(n *tree.Node)
	walk = func(n *tree.Node) {
		if n.IsLeaf() {
			return
		}
		if n.Left.N+n.Right.N != n.N {
			t.Fatalf("node %d: children sum to %d, node has %d", n.ID, n.Left.N+n.Right.N, n.N)
		}
		walk(n.Left)
		walk(n.Right)
	}
	walk(tr.Root)
}

// TestHistDeterministicAcrossProcs asserts the HIST determinism contract:
// integer histogram sums plus a stable partition make the tree
// byte-identical for every processor count.
func TestHistDeterministicAcrossProcs(t *testing.T) {
	tbl := synthTable(t, 7, 9, 6000, 21)
	ref, _, err := Build(tbl, Config{Algorithm: Hist, Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 3, 5} {
		tr, _, err := Build(tbl, Config{Algorithm: Hist, Procs: p})
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		if !tree.Equal(ref, tr) {
			t.Fatalf("P=%d tree differs from P=1: %s", p, tree.Diff(ref, tr))
		}
	}
}

// TestHistMaxBinsTradeoff checks that more bins cannot be built from fewer
// cuts (monotone knob) and that a tiny bin budget still yields a working
// tree.
func TestHistMaxBinsTradeoff(t *testing.T) {
	tbl := synthTable(t, 1, 9, 8000, 31)
	for _, bins := range []int{4, 16, 256} {
		tr, _, err := Build(tbl, Config{Algorithm: Hist, MaxBins: bins})
		if err != nil {
			t.Fatalf("MaxBins=%d: %v", bins, err)
		}
		acc := tr.Accuracy(tbl)
		if acc < 0.9 {
			t.Fatalf("MaxBins=%d: training accuracy %.3f, want >= 0.9", bins, acc)
		}
	}
}

// TestHistAccuracyDelta is the accuracy gate: on every synthetic function
// F1–F7 at D100K, the Hist tree's holdout accuracy must be within a fixed
// tolerance of the serial exact engine's.
func TestHistAccuracyDelta(t *testing.T) {
	if testing.Short() {
		t.Skip("seven F*/D100K builds")
	}
	const (
		rows = 100000
		tol  = 0.02
	)
	for fn := 1; fn <= 7; fn++ {
		fn := fn
		t.Run(fmt.Sprintf("F%d", fn), func(t *testing.T) {
			tbl, err := synth.Generate(synth.Config{
				Function: fn, Attrs: 9, Tuples: rows, Seed: int64(100 + fn), Perturbation: 0.05,
			})
			if err != nil {
				t.Fatal(err)
			}
			train, test := tbl.SplitHoldout(0.25)
			exact, _, err := Build(train, Config{Algorithm: Serial})
			if err != nil {
				t.Fatal(err)
			}
			approx, _, err := Build(train, Config{Algorithm: Hist, Procs: 2})
			if err != nil {
				t.Fatal(err)
			}
			accE := exact.Accuracy(test)
			accH := approx.Accuracy(test)
			t.Logf("F%d: exact %.4f hist %.4f delta %+.4f", fn, accE, accH, accH-accE)
			if math.Abs(accH-accE) > tol {
				t.Fatalf("F%d: |%.4f - %.4f| > %.2f", fn, accH, accE, tol)
			}
		})
	}
}

// TestHistCancellation checks that context cancellation surfaces promptly
// as ctx.Err() without leaking workers.
func TestHistCancellation(t *testing.T) {
	tbl := synthTable(t, 7, 9, 6000, 41)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	base := runtime.NumGoroutine()
	_, _, err := Build(tbl, Config{Algorithm: Hist, Procs: 3, Context: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	waitGoroutines(t, base)
}

// TestHistChaos is the Hist row of the chaos matrix. The engine touches no
// store, so faults are injected through the histHook seam instead: for
// every phase of the scheme, a panicking worker and an erroring worker.
// The contract mirrors the exact engines' — Build returns a prompt wrapped
// error (never a wedged barrier, never a crashed process), leaks no
// goroutines and no temp files, and a clean rerun still produces the
// byte-identical reference tree. Each fault lands either on the phase's
// second unit or, for every phase after binning, on its first unit once a
// leaf has been derived by histogram subtraction, so faults also hit
// levels that hold retained parent histograms.
func TestHistChaos(t *testing.T) {
	tbl := synthTable(t, 7, 9, 4000, 51)
	ref, _, err := Build(tbl, Config{Algorithm: Hist, Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	injected := errors.New("injected hist fault")
	phases := []string{"bin", "accum", "merge", "winner", "split"}
	for _, phase := range phases {
		for _, mode := range []string{"panic", "error"} {
			for _, late := range []bool{false, true} {
				if late && phase == "bin" {
					continue // binning ends before any leaf exists
				}
				phase, mode, late := phase, mode, late
				name := phase + "/" + mode
				if late {
					name += "/after-subtraction"
				}
				t.Run(name, func(t *testing.T) {
					base := runtime.NumGoroutine()
					var hits atomic.Int32 // the hook runs on every worker
					var sub atomic.Int64
					cfg := Config{
						Algorithm:      Hist,
						Procs:          3,
						histSubtracted: &sub,
						histHook: func(ph string, worker int) error {
							if ph != phase || late && sub.Load() == 0 {
								return nil
							}
							if n := hits.Add(1); late && n != 1 || !late && n != 2 {
								return nil
							}
							if mode == "panic" {
								panic(fmt.Sprintf("chaos: %s unit dies", ph))
							}
							return injected
						},
					}
					_, _, err := Build(tbl, cfg)
					if err == nil {
						t.Fatalf("build survived a %s fault in %s", mode, phase)
					}
					if mode == "panic" && !errors.Is(err, ErrWorkerPanic) {
						t.Fatalf("err = %v, want ErrWorkerPanic", err)
					}
					if mode == "error" && !errors.Is(err, injected) {
						t.Fatalf("err = %v, want injected fault", err)
					}
					waitGoroutines(t, base)
					checkNoTempDirs(t, os.TempDir())

					// The failure must not have corrupted anything reachable: a
					// clean rebuild still matches the reference byte for byte.
					tr, _, err := Build(tbl, Config{Algorithm: Hist, Procs: 3})
					if err != nil {
						t.Fatalf("clean rebuild failed: %v", err)
					}
					if !tree.Equal(ref, tr) {
						t.Fatalf("clean rebuild differs from reference: %s", tree.Diff(ref, tr))
					}
				})
			}
		}
	}
}

// TestHistHighCardinalityCategorical exercises the greedy subset search
// path (cardinality above the enumeration threshold) through the histogram
// feed.
func TestHistHighCardinalityCategorical(t *testing.T) {
	cats := make([]string, 20)
	for i := range cats {
		cats[i] = fmt.Sprintf("c%d", i)
	}
	schema := &dataset.Schema{
		Attrs: []dataset.Attribute{
			{Name: "k", Kind: dataset.Categorical, Categories: cats},
		},
		Classes: []string{"G", "B"},
	}
	tbl, err := dataset.NewTable(schema)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4000; i++ {
		code := int32(i % 20)
		cls := int32(0)
		if code >= 10 {
			cls = 1
		}
		tbl.AppendFast(dataset.Tuple{Cat: []int32{code}, Class: cls})
	}
	tr, _, err := Build(tbl, Config{Algorithm: Hist, Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if acc := tr.Accuracy(tbl); acc != 1.0 {
		t.Fatalf("perfectly separable categorical data classified at %.3f", acc)
	}
	// And the exact serial engine agrees on this dataset: with one
	// categorical attribute there is nothing to bin, so the trees match
	// exactly.
	exact, _, err := Build(tbl, Config{Algorithm: Serial})
	if err != nil {
		t.Fatal(err)
	}
	if !tree.Equal(exact, tr) {
		t.Fatalf("pure-categorical hist tree differs from exact: %s", tree.Diff(exact, tr))
	}
}

// TestHistRespectsStoppingRules checks MaxDepth, MinSplit and MinGiniGain
// flow through the Hist path.
func TestHistRespectsStoppingRules(t *testing.T) {
	tbl := synthTable(t, 7, 9, 6000, 61)
	tr, _, err := Build(tbl, Config{Algorithm: Hist, MaxDepth: 3})
	if err != nil {
		t.Fatal(err)
	}
	if lv := tr.Stats().Levels; lv > 4 {
		t.Fatalf("MaxDepth=3 grew %d levels", lv)
	}
	tr, _, err = Build(tbl, Config{Algorithm: Hist, MinGiniGain: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Root.IsLeaf() {
		t.Fatal("MinGiniGain=0.5 should stop the root from splitting")
	}
	tr, _, err = Build(tbl, Config{Algorithm: Hist, MinSplit: int64(len(tbl.ClassColumn()) + 1)})
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Root.IsLeaf() {
		t.Fatal("MinSplit above n should stop the root from splitting")
	}
}

// TestHistMaxBinsValidation checks core-side MaxBins validation.
func TestHistMaxBinsValidation(t *testing.T) {
	tbl := synthTable(t, 1, 9, 500, 71)
	for _, bins := range []int{1, -3, 65537} {
		if _, _, err := Build(tbl, Config{Algorithm: Hist, MaxBins: bins}); err == nil {
			t.Fatalf("MaxBins=%d accepted", bins)
		}
	}
}

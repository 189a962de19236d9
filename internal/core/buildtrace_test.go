package core

import (
	"testing"

	"repro/internal/trace"
)

// TestBuildRecorderReconciles runs every scheme with an external Recorder
// and checks the observability layer's books: each phase saw work units,
// and summing any active worker's recorded time (compute + barrier + idle)
// reproduces the measured build wall clock. The tolerance is loose (10% +
// 25ms) because CI machines are noisy; EXPERIMENTS.md documents the
// measured reconciliation on quiet hardware.
func TestBuildRecorderReconciles(t *testing.T) {
	tbl := synthTable(t, 7, 9, 4000, 1)
	for _, s := range append(listSchemes(), scheme{alg: Hist}) {
		alg := s.alg
		t.Run(s.String(), func(t *testing.T) {
			procs := 3
			if alg == Serial {
				procs = 1
			}
			rec := trace.NewRecorder(procs)
			_, tm, err := Build(tbl, Config{Algorithm: alg, SubtreeInner: s.inner, Procs: procs, Recorder: rec})
			if err != nil {
				t.Fatal(err)
			}
			b := rec.Snapshot()
			if len(b.Workers) != procs {
				t.Fatalf("workers = %d, want %d", len(b.Workers), procs)
			}

			ph := b.PhaseSeconds()
			var units [trace.NumBuildPhases]int64
			for _, w := range b.Workers {
				for _, lv := range w.Levels {
					for p := 0; p < int(trace.NumBuildPhases); p++ {
						units[p] += lv.Units[p]
					}
				}
			}
			want := []trace.BuildPhase{trace.PhaseEval, trace.PhaseWinner, trace.PhaseSplit}
			if alg == Hist {
				want = append(want, trace.PhaseBin)
			}
			for _, p := range want {
				if units[p] == 0 {
					t.Errorf("%v: no %v units recorded", alg, p)
				}
			}
			if alg != Hist && units[trace.PhaseBin] != 0 {
				t.Errorf("%v: exact engine recorded %d bin units", alg, units[trace.PhaseBin])
			}
			_ = ph

			// Each worker that did anything must account for roughly the
			// whole build wall: its compute plus barrier plus idle time.
			wall := tm.Build.Seconds()
			tol := wall*0.10 + 0.025
			for w, sec := range b.WorkerSeconds() {
				if sec == 0 {
					continue // worker never participated (possible under SUBTREE)
				}
				if diff := wall - sec; diff > tol || diff < -tol {
					t.Errorf("%v worker %d: recorded %.4fs vs build wall %.4fs (tol %.4fs)",
						alg, w, sec, wall, tol)
				}
			}
		})
	}
}

// TestBuildRecorderLaneMismatch checks the config guard: an external
// recorder narrower than Procs is rejected up front.
func TestBuildRecorderLaneMismatch(t *testing.T) {
	tbl := synthTable(t, 1, 9, 100, 2)
	rec := trace.NewRecorder(1)
	_, _, err := Build(tbl, Config{Algorithm: Basic, Procs: 2, Recorder: rec})
	if err == nil {
		t.Fatal("want error for recorder with too few lanes")
	}
}

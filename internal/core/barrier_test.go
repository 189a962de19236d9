package core

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/tree"
)

// levelShape is one tree level as the engines saw it: L non-terminal
// frontier leaves, S of which split.
type levelShape struct{ L, S int }

// treeShape recomputes every level's frontier from a built tree with the
// engines' stopping rule (default MinSplit, no depth bound): a node is on
// its level's frontier unless it is too small or pure.
func treeShape(tr *tree.Tree) []levelShape {
	var shape []levelShape
	var walk func(n *tree.Node)
	walk = func(n *tree.Node) {
		for len(shape) <= n.Level {
			shape = append(shape, levelShape{})
		}
		pure := false
		for _, c := range n.ClassCounts {
			pure = pure || c == n.N
		}
		if n.N >= 2 && !pure {
			shape[n.Level].L++
		}
		if !n.IsLeaf() {
			shape[n.Level].S++
			walk(n.Left)
			walk(n.Right)
		}
	}
	walk(tr.Root)
	for len(shape) > 0 && shape[len(shape)-1].L == 0 {
		shape = shape[:len(shape)-1]
	}
	return shape
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// TestBarrierSchedule pins every level-synchronous scheme's barrier
// schedule: at P=3, each worker's PhaseBarrier units at each level of the
// built tree must equal the scheme's formula in L (non-terminal frontier
// leaves), S (how many split), n (attributes) and HIST's leaf block size.
// RECPAR is the paper's rejected record-parallel design and must keep its
// Θ(leaves × attributes) barriers per level. The simulator replaying a
// serial cost trace of the same table must charge the same count.
func TestBarrierSchedule(t *testing.T) {
	const procs = 3
	tables := map[string]*dataset.Table{
		"F7-A9-D3000": synthTable(t, 7, 9, 3000, 1),
		"F1-A9-D2000": synthTable(t, 1, 9, 2000, 2),
	}
	for name, tbl := range tables {
		n := tbl.Schema().NumAttrs()
		// Every table here is narrow enough for HIST's arena budget to
		// admit the full block of leaves.
		if histArenaBudget/8/(n*256*tbl.Schema().NumClasses()) < histMaxBlock {
			t.Fatalf("%s: HIST block is budget-bound; the formula assumes %d leaves", name, histMaxBlock)
		}
		formulas := []struct {
			alg Algorithm
			sim sim.Scheme
			per func(s levelShape) int
		}{
			{Basic, sim.Basic, func(levelShape) int { return 4 }},
			{FWK, sim.FWK, func(s levelShape) int { return 2*ceilDiv(s.L, 4) + 1 }},
			{MWK, sim.MWK, func(levelShape) int { return 2 }},
			{RecPar, sim.RecPar, func(s levelShape) int { return s.L*(2*n+4) + 2*n*s.S + 2 }},
			// HIST's binning is a farm that ends before the group starts,
			// so level 0 crosses no bin barriers.
			{Hist, -1, func(s levelShape) int { return 4*ceilDiv(s.L, histMaxBlock) + 1 }},
		}

		ctr := &trace.Trace{}
		if _, _, err := Build(tbl, Config{Algorithm: Serial, Trace: ctr}); err != nil {
			t.Fatal(err)
		}
		for _, f := range formulas {
			t.Run(name+"/"+f.alg.String(), func(t *testing.T) {
				rec := trace.NewRecorder(procs)
				tr, _, err := Build(tbl, Config{Algorithm: f.alg, Procs: procs, Recorder: rec})
				if err != nil {
					t.Fatal(err)
				}
				shape := treeShape(tr)
				total := 0
				for lv, s := range shape {
					want := f.per(s)
					total += want
					for w, wk := range rec.Snapshot().Workers {
						got := int64(0)
						if lv < len(wk.Levels) {
							got = wk.Levels[lv].Units[trace.PhaseBarrier]
						}
						if got != int64(want) {
							t.Errorf("level %d (L=%d S=%d) worker %d: %d barriers, want %d",
								lv, s.L, s.S, w, got, want)
						}
					}
				}
				if f.sim < 0 {
					return // the simulator replays the exact schemes only
				}
				res, err := sim.Simulate(ctr, f.sim, procs, 0, sim.DefaultParams())
				if err != nil {
					t.Fatal(err)
				}
				if res.Barriers != total {
					t.Errorf("simulator charged %d barriers, engine crossed %d", res.Barriers, total)
				}
			})
		}
	}
}

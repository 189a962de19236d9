package core

import (
	"time"

	"repro/internal/trace"
)

// runSerial grows the tree breadth-first on one processor, exactly as serial
// SPRINT does (paper §2). When cfg.Trace is set, every E/W/S work unit's
// wall-clock cost is recorded; the virtual-time simulator replays those
// costs under each parallel scheme's scheduling policy.
func (e *engine) runSerial(root *leafState) error {
	rec := e.cfg.Trace
	ln := e.rec.Lane(0)
	sc := e.newScratch()
	frontier := e.rootFrontier(root)
	level := 0
	for len(frontier) > 0 {
		var lt *trace.Level
		if rec != nil {
			rec.Levels = append(rec.Levels, trace.Level{
				Leaves: make([]trace.Leaf, len(frontier)),
			})
			lt = &rec.Levels[len(rec.Levels)-1]
		}

		// E: evaluate attributes. The serial scan order (attribute
		// outer, leaf inner) reads each attribute's physical files once,
		// sequentially, per level — the access pattern BASIC preserves.
		for a := 0; a < e.nattr; a++ {
			for li, l := range frontier {
				t0 := time.Now()
				if err := e.evalLeafAttr(l, a, sc); err != nil {
					return err
				}
				ln.Add(level, trace.PhaseEval, time.Since(t0))
				if lt != nil {
					if lt.Leaves[li].E == nil {
						lt.Leaves[li] = trace.Leaf{
							Parent: l.parentIdx,
							N:      l.n,
							E:      make([]float64, e.nattr),
							S:      make([]float64, e.nattr),
						}
					}
					lt.Leaves[li].E[a] = time.Since(t0).Seconds()
				}
			}
		}

		// W: winner selection and probe construction, per leaf.
		for li, l := range frontier {
			t0 := time.Now()
			if err := e.winnerAndProbe(l, sc); err != nil {
				return err
			}
			ln.Add(level, trace.PhaseWinner, time.Since(t0))
			if lt != nil {
				lt.Leaves[li].W = time.Since(t0).Seconds()
				lt.Leaves[li].Split = l.didSplit
			}
		}

		// Assign child slots: left children share one alternate slot,
		// right children the other (the paper's 4-file scheme).
		tw := time.Now()
		nextBase := e.pairBase(level + 1)
		pair := func(side int) int { return nextBase + side }
		for _, l := range frontier {
			if err := e.registerChildren(l, pair); err != nil {
				return err
			}
		}
		ln.AddN(level, trace.PhaseWinner, time.Since(tw), 0)

		// S: split attribute lists, per attribute per leaf.
		for a := 0; a < e.nattr; a++ {
			for li, l := range frontier {
				t0 := time.Now()
				if err := e.splitLeafAttr(l, a, sc); err != nil {
					return err
				}
				ln.Add(level, trace.PhaseSplit, time.Since(t0))
				if lt != nil {
					lt.Leaves[li].S[a] = time.Since(t0).Seconds()
				}
			}
		}

		// Build the next frontier and release this level's resources.
		next := e.levelEnd(frontier, e.levelSlots(level)...)
		if err := e.ferr.Get(); err != nil {
			return err
		}
		if lt != nil {
			for _, c := range next {
				lt.Leaves[c.parentIdx].NValidChildren++
			}
		}
		frontier = next
		level++
	}
	return nil
}

package core

import (
	"sync/atomic"
	"time"

	"repro/internal/trace"
)

// levelBasic runs one level of group g with the BASIC policy (paper Fig. 3):
// the E and S phases are attribute-data-parallel with dynamic attribute
// scheduling (an atomic counter replaces the paper's counter+lock),
// separated by barriers; the W phase — winner selection and probe
// construction for every leaf — is performed serially by the group master
// while the other processors wait at the barrier. SUBTREE groups run the
// same level (§3.3). It reports false when the group barrier was broken by
// an abort.
func (e *engine) levelBasic(g *group, master bool, ln *trace.Lane, sc *scratch) bool {
	lvl := g.level
	e.sweep(g, &g.eCtr, trace.PhaseEval, e.evalLeafAttr, ln, sc)
	if !g.bar.TimedWait(ln, lvl) {
		return false
	}

	// W phase: the master alone finds winners and builds probes — the
	// sequential bottleneck MWK later removes.
	if master && !e.ferr.Failed() {
		for _, l := range g.frontier {
			t0 := time.Now()
			if err := e.leafW(g, l, sc); err != nil {
				e.ferr.Set(err)
				break
			}
			ln.Add(lvl, trace.PhaseWinner, time.Since(t0))
		}
	}
	if !g.bar.TimedWait(ln, lvl) {
		return false
	}

	e.sweep(g, &g.sCtr, trace.PhaseSplit, e.splitLeafAttr, ln, sc)
	return g.bar.TimedWait(ln, lvl)
}

// sweep is one BASIC E or S phase: workers grab attributes from ctr and run
// unit for the grabbed attribute on every leaf of the group, so each
// attribute's physical files are read once, sequentially, per level.
func (e *engine) sweep(g *group, ctr *atomic.Int64, p trace.BuildPhase,
	unit func(l *leafState, a int, sc *scratch) error, ln *trace.Lane, sc *scratch) {
	for !e.ferr.Failed() {
		a := int(ctr.Add(1) - 1)
		if a >= e.nattr {
			return
		}
		t0 := time.Now()
		for _, l := range g.frontier {
			if err := unit(l, a, sc); err != nil {
				e.ferr.Set(err)
				break
			}
		}
		ln.AddN(g.level, p, time.Since(t0), int64(len(g.frontier)))
	}
}

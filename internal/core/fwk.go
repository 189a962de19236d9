package core

import (
	"time"

	"repro/internal/trace"
)

// levelFWK runs one level of group g with the Fixed-Window-K policy (paper
// Fig. 4). Leaves are processed in blocks of K. Within a block, processors
// grab (leaf, attribute) E units dynamically, leaf by leaf; the last
// processor to finish a leaf's evaluation immediately builds that leaf's
// probe (W), overlapping W_i with E_{i+1..K} — the task pipelining that
// removes BASIC's serial W bottleneck. One barrier per block separates
// evaluation from the block's split phase. Children are assigned to the 2K
// per-attribute file slots with the purity pre-test and hole-free
// relabeling of §3.2.2 (the group's window placement). It reports false
// when the group barrier was broken by an abort.
func (e *engine) levelFWK(g *group, ln *trace.Lane, sc *scratch) bool {
	// Snapshot the level: the master re-arms g once the last block's
	// barrier has passed, and the block loop must not observe that write.
	frontier, lvl, K := g.frontier, g.level, e.cfg.WindowK
	for lo := 0; lo < len(frontier); lo += K {
		blk := frontier[lo:min(lo+K, len(frontier))]

		// E phase with pipelined W: walk the block's leaves in order.
		for _, l := range blk {
			e.leafEval(g, l, ln, lvl, sc)
		}
		// End-of-block synchronization (one barrier per K-block).
		if !g.bar.TimedWait(ln, lvl) {
			return false
		}

		// S phase for the whole block, (leaf, attribute) units.
		for _, l := range blk {
			e.leafSplit(l, ln, lvl, sc)
		}
		if !g.bar.TimedWait(ln, lvl) {
			return false
		}
	}
	return true
}

// leafEval runs leaf l's remaining E units, grabbed dynamically — the
// windowed schemes' (leaf, attribute) units. The processor that finishes
// the last unit performs the leaf's W at once, while its peers evaluate
// later leaves, and reports true.
func (e *engine) leafEval(g *group, l *leafState, ln *trace.Lane, lvl int, sc *scratch) bool {
	for !e.ferr.Failed() {
		a := l.eNext.Add(1) - 1
		if a >= int64(e.nattr) {
			return false
		}
		t0 := time.Now()
		if err := e.evalLeafAttr(l, int(a), sc); err != nil {
			e.ferr.Set(err)
			return false
		}
		ln.Add(lvl, trace.PhaseEval, time.Since(t0))
		if l.eDone.Add(1) == int64(e.nattr) {
			tw := time.Now()
			if err := e.leafW(g, l, sc); err != nil {
				e.ferr.Set(err)
			}
			ln.Add(lvl, trace.PhaseWinner, time.Since(tw))
			return true
		}
	}
	return false
}

// leafSplit runs leaf l's remaining S units, grabbed dynamically; the
// processor that finishes the last unit releases the leaf.
func (e *engine) leafSplit(l *leafState, ln *trace.Lane, lvl int, sc *scratch) {
	for !e.ferr.Failed() {
		a := l.sNext.Add(1) - 1
		if a >= int64(e.nattr) {
			return
		}
		t0 := time.Now()
		if err := e.splitLeafAttr(l, int(a), sc); err != nil {
			e.ferr.Set(err)
		}
		ln.Add(lvl, trace.PhaseSplit, time.Since(t0))
		if l.sDone.Add(1) == int64(e.nattr) {
			releaseLeaf(l)
		}
	}
}

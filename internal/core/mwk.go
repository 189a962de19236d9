package core

import (
	"time"

	"repro/internal/trace"
)

// levelMWK runs one level of group g with the Moving-Window-K policy (paper
// Fig. 6). It removes FWK's per-block barrier: before working on leaf i, a
// processor waits on a per-leaf condition (here: a closed channel, Go's
// condition-variable idiom) until leaf i−K has been completed, so at most K
// leaves are in flight; the last processor to finish a leaf's evaluation
// builds its probe and signals the leaf done. This exposes the extra
// pipeline parallelism between adjacent blocks ({R1,L2} in the paper's
// example) at the price of one lock synchronization per leaf per level.
// SUBTREE groups run the same level as the §3.4 hybrid ("we can also use
// FWK or MWK as the subroutine"), their children going to the group's write
// pair. It reports false when the group barrier was broken by an abort.
func (e *engine) levelMWK(g *group, ln *trace.Lane, sc *scratch) bool {
	lvl, K := g.level, e.cfg.WindowK
	for i, l := range g.frontier {
		// Moving-window throttle: leaf i waits for leaf i−K.
		if i >= K {
			e.waitLeaf(g.doneCh[i-K], ln, lvl)
		}
		// E units of leaf i; the processor that performs W_i signals that
		// the i-th leaf is done.
		if e.leafEval(g, l, ln, lvl, sc) {
			close(g.doneCh[i])
		}
		// S units of leaf i require W_i; take them now only if the leaf is
		// already signalled — otherwise keep moving so W_i overlaps
		// E_{i+1..i+K} (the pipelining MWK exists for) and finish them in
		// the completion sweep below.
		select {
		case <-g.doneCh[i]:
			e.leafSplit(l, ln, lvl, sc)
		default:
		}
	}
	// Completion sweep: every leaf's W has been signalled by now (all E
	// units above have run), so the deferred S units can be grabbed to
	// exhaustion.
	for i, l := range g.frontier {
		e.waitLeaf(g.doneCh[i], ln, lvl)
		e.leafSplit(l, ln, lvl, sc)
	}
	return g.bar.TimedWait(ln, lvl)
}

// waitLeaf blocks on a leaf-done condition until it is signalled or the
// build fails — the signalling processor may itself have bailed out on the
// error, or died. The stall is recorded as window-idle time in the caller's
// lane.
func (e *engine) waitLeaf(ch chan struct{}, ln *trace.Lane, lvl int) {
	t0 := time.Now()
	select {
	case <-ch:
	case <-e.ferr.Done():
	}
	ln.Add(lvl, trace.PhaseIdle, time.Since(t0))
}

func makeSignals(n int) []chan struct{} {
	chs := make([]chan struct{}, n)
	for i := range chs {
		chs[i] = make(chan struct{})
	}
	return chs
}

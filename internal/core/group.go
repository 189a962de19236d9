package core

import (
	"sync/atomic"
	"time"

	"repro/internal/sched"
	"repro/internal/trace"
)

// group is a processor group working on a disjoint part of the leaf
// frontier, the one unit every level-synchronous list scheme runs on: BASIC,
// FWK and MWK run one group of all P workers for the whole build (runGroup),
// while SUBTREE splits and re-forms groups between levels (paper Fig. 7).
// workers[0] (the smallest id) is the group master. Everything below bar is
// level state, written by arm while no worker runs the group's level.
type group struct {
	workers []int
	bar     *sched.Barrier

	frontier  []*leafState
	level     int
	eCtr      atomic.Int64    // BASIC: next E attribute to grab
	sCtr      atomic.Int64    // BASIC: next S attribute to grab
	doneCh    []chan struct{} // MWK: per-leaf W-done signals
	writePair [2]int          // slots the level's children are written into
	window    int64           // FWK/MWK: children dealt over this many slots
	nextChild atomic.Int64    // window placement: valid children numbered so far
	readPair  *sharedPair     // SUBTREE: where the frontier's lists live
}

// newGroup forms a group of workers over frontier whose children are
// written into writePair. The windowed schemes place children over the K
// slots from writePair[0] instead.
func (e *engine) newGroup(workers []int, frontier []*leafState, writePair [2]int) *group {
	g := &group{workers: workers, bar: sched.NewBarrier(len(workers))}
	if e.cfg.Algorithm == FWK || e.cfg.Algorithm == MWK {
		g.window = int64(e.cfg.WindowK)
	}
	e.arm(g, frontier, writePair)
	return g
}

// arm points g at a level: its frontier, fresh grab counters and leaf
// signals, and the slots its children are written into.
func (e *engine) arm(g *group, frontier []*leafState, writePair [2]int) {
	g.frontier, g.writePair = frontier, writePair
	g.eCtr.Store(0)
	g.sCtr.Store(0)
	g.nextChild.Store(0)
	if len(frontier) > 0 {
		g.level = frontier[0].node.Level
	}
	if e.policy() == MWK {
		g.doneCh = makeSignals(len(frontier))
	}
}

// childSlot is the group's placement rule for a valid child on side (0
// left, 1 right). Pair placement (BASIC, SUBTREE) gives each side its own
// slot of the write pair; window placement (FWK, MWK) numbers the level's
// valid children consecutively and deals them round-robin over the K
// next-level slots — the relabeling of §3.2.2 that leaves no holes in the
// K-block schedule.
func (g *group) childSlot(side int) int {
	if g.window == 0 {
		return g.writePair[side]
	}
	return g.writePair[0] + int((g.nextChild.Add(1)-1)%g.window)
}

// policy is the level body a group runs: the algorithm itself, or for
// SUBTREE the inner algorithm of §3.4.
func (e *engine) policy() Algorithm {
	if e.cfg.Algorithm == Subtree {
		return e.cfg.SubtreeInner
	}
	return e.cfg.Algorithm
}

// runLevel runs one level of g with the policy's level body. It reports
// false when the group barrier was broken by an abort.
func (e *engine) runLevel(g *group, master bool, ln *trace.Lane, sc *scratch) bool {
	switch e.policy() {
	case FWK:
		return e.levelFWK(g, ln, sc)
	case MWK:
		return e.levelMWK(g, ln, sc)
	default:
		return e.levelBasic(g, master, ln, sc)
	}
}

// runGroup grows the tree for BASIC, FWK and MWK: one group of all P workers
// runs the scheme's level body level after level. Between levels the master
// builds the next frontier, recycles the level's slots and re-arms the group
// to write the next level's children into the other half of the
// double-buffered slots; this bookkeeping is accounted as S-phase cleanup.
func (e *engine) runGroup(root *leafState) error {
	frontier := e.rootFrontier(root)
	if len(frontier) == 0 {
		return nil
	}
	nextPair := func(level int) [2]int {
		base := e.pairBase(level + 1)
		return [2]int{base, base + 1}
	}
	g := e.newGroup(identity(e.cfg.Procs), frontier, nextPair(0))
	// A panicking worker can never rejoin the barrier protocol; breaking the
	// barrier releases every surviving peer, and the latched panic releases
	// every leaf-signal wait.
	return sched.Spawn(e.cfg.Procs, &e.ferr, g.bar.Abort, func(id int) {
		ln := e.rec.Lane(id)
		sc := e.newScratch()
		for {
			// lvl is this iteration's level, captured while the master's
			// re-arm is still a barrier away.
			lvl := g.level
			if !e.runLevel(g, id == 0, ln, sc) {
				return // build aborted by a dead worker's teardown
			}
			if id == 0 {
				t0 := time.Now()
				e.arm(g, e.levelEnd(g.frontier, e.levelSlots(lvl)...), nextPair(lvl+1))
				ln.AddN(lvl, trace.PhaseSplit, time.Since(t0), 0)
			}
			if !g.bar.TimedWait(ln, lvl) || len(g.frontier) == 0 {
				return
			}
		}
	})
}

// leafW is the W step of a group leaf: winner, probe and children, then
// storage for each valid child at the group's placement.
func (e *engine) leafW(g *group, l *leafState, sc *scratch) error {
	if err := e.winnerAndProbe(l, sc); err != nil {
		return err
	}
	return e.registerChildren(l, g.childSlot)
}

func identity(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

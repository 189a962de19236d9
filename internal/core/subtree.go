package core

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sched"
	"repro/internal/trace"
)

// slotPool hands out pairs of store slots to subtree groups and recycles
// them, growing the store on demand. At most 4 slots per concurrently
// active group are live (a read pair and a write pair), matching the
// paper's "up to P files per attribute" bound for SUBTREE.
type slotPool struct {
	mu   sync.Mutex
	e    *engine
	free [][2]int
	next int
}

func newSlotPool(e *engine, firstUnused int) *slotPool {
	return &slotPool{e: e, next: firstUnused}
}

func (p *slotPool) acquire() ([2]int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		pair := p.free[n-1]
		p.free = p.free[:n-1]
		return pair, nil
	}
	pair := [2]int{p.next, p.next + 1}
	p.next += 2
	if err := p.e.store.EnsureSlots(p.next); err != nil {
		return [2]int{}, err
	}
	return pair, nil
}

func (p *slotPool) release(pair [2]int) error {
	if err := p.e.resetSlots(pair[0], pair[1]); err != nil {
		return err
	}
	p.mu.Lock()
	p.free = append(p.free, pair)
	p.mu.Unlock()
	return nil
}

// sharedPair is a reference-counted slot pair: when a group splits, both
// subgroups read their parent lists from the same pair, which returns to
// the pool only after the last reader finishes its level.
type sharedPair struct {
	pair [2]int
	refs atomic.Int32
	pool *slotPool
}

func newSharedPair(pool *slotPool, pair [2]int, refs int32) *sharedPair {
	sp := &sharedPair{pair: pair, pool: pool}
	sp.refs.Store(refs)
	return sp
}

func (sp *sharedPair) release() error {
	if sp.refs.Add(-1) == 0 {
		return sp.pool.release(sp.pair)
	}
	return nil
}

// newSubgroup forms a SUBTREE group that reads its frontier from readPair.
// The group barrier is registered with bs so a teardown can break every
// live group at once; groups formed after an abort get an already-broken
// barrier.
func (e *engine) newSubgroup(bs *sched.BarrierSet, workers []int, frontier []*leafState,
	readPair *sharedPair, writePair [2]int) *group {
	g := e.newGroup(workers, frontier, writePair)
	g.readPair = readPair
	bs.Add(g.bar)
	return g
}

// runSubtree implements the SUBTREE task-parallel scheme (paper Fig. 7).
// All processors start in one group at the root. A group processes one tree
// level with the BASIC algorithm (or MWK, the §3.4 hybrid), then its master
// gathers any processors that have become idle (the FREE queue), and either
// dies (empty frontier, members go idle), continues as one group (single
// leaf or single processor), or splits leaves and processors into two new
// groups working on disjoint subtrees.
func (e *engine) runSubtree(root *leafState) error {
	frontier := e.rootFrontier(root)
	if len(frontier) == 0 {
		return nil
	}
	P := e.cfg.Procs

	chans := make([]chan *group, P)
	for i := range chans {
		chans[i] = make(chan *group, 1)
	}
	fq := sched.NewFreeQueue(P, chans)
	// Registry of every live group barrier, so a panicking worker's teardown
	// can break them all: its own group's peers unblock from the level
	// protocol, and unrelated groups unwind at their next barrier.
	bs := &sched.BarrierSet{}
	// Setup wrote the root lists into slot 0; slots {0,1} form the root's
	// read pair and {2,3} are free.
	pool := newSlotPool(e, 4)
	pool.free = append(pool.free, [2]int{2, 3})

	writePair, err := pool.acquire()
	if err != nil {
		return err
	}
	g0 := e.newSubgroup(bs, identity(P), frontier,
		newSharedPair(pool, [2]int{0, 1}, 1), writePair)
	for _, w := range g0.workers {
		chans[w] <- g0
	}

	return sched.Spawn(P, &e.ferr, func() { bs.Abort(); fq.Abort() }, func(w int) {
		ln := e.rec.Lane(w)
		sc := e.newScratch()
		// Time spent blocked on the assignment channel is FREE-queue
		// idleness, attributed to the last group's level (including the
		// final wait for the termination signal).
		lastLvl := 0
		for {
			t0 := time.Now()
			var g *group
			select {
			case g = <-chans[w]:
			case <-fq.AbortCh():
				// A dead worker can never broadcast termination; the abort
				// channel is the only way out.
			}
			ln.Add(lastLvl, trace.PhaseIdle, time.Since(t0))
			if g == nil {
				return
			}
			lastLvl = g.level
			e.subtreeMember(g, w, ln, sc, pool, fq, chans, bs)
		}
	})
}

// subtreeMember executes one group level as worker w. Non-masters return to
// their assignment channel ("go to sleep") after the level; the master
// performs the group transition.
func (e *engine) subtreeMember(g *group, w int, ln *trace.Lane, sc *scratch,
	pool *slotPool, fq *sched.FreeQueue[*group], chans []chan *group, bs *sched.BarrierSet) {

	isMaster := w == g.workers[0]
	if !e.runLevel(g, isMaster, ln, sc) {
		// Build aborted by a dead worker's teardown; the caller's loop
		// exits through the queue's abort channel.
		return
	}
	if !isMaster {
		return // sleep until reassigned (or terminated) via the channel
	}

	// Master: build the new frontier, release the parent lists, and decide
	// the group transition; this bookkeeping is accounted as S cleanup.
	t0 := time.Now()
	defer func() { ln.AddN(g.level, trace.PhaseSplit, time.Since(t0), 0) }()
	next := e.levelEnd(g.frontier)
	if err := g.readPair.release(); err != nil {
		e.ferr.Set(err)
		next = nil
	}

	if len(next) == 0 {
		// Subtree finished: everyone (master included) joins the FREE
		// queue. The write pair holds nothing anyone will read.
		if err := pool.release(g.writePair); err != nil {
			e.ferr.Set(err)
		}
		fq.Put(g.workers...)
		return
	}

	// Grab all idle processors from the FREE queue.
	procs := append(append([]int(nil), g.workers...), fq.Drain()...)
	sort.Ints(procs) // the smallest id is the master
	childRead := newSharedPair(pool, g.writePair, 1)

	if len(next) == 1 || len(procs) == 1 {
		// One leaf (all processors attack it) or one processor (it keeps
		// the whole frontier): continue as a single group.
		wp, err := pool.acquire()
		if err != nil {
			e.ferr.Set(err)
			fq.Put(procs...)
			return
		}
		ng := e.newSubgroup(bs, procs, next, childRead, wp)
		for _, id := range ng.workers {
			chans[id] <- ng
		}
		return
	}

	// Multiple leaves and processors: split both and recurse.
	childRead.refs.Store(2)
	l1, l2 := splitFrontier(next)
	half := (len(procs) + 1) / 2
	p1, p2 := procs[:half], procs[half:]
	wp1, err1 := pool.acquire()
	wp2, err2 := pool.acquire()
	if err1 != nil || err2 != nil {
		e.ferr.Set(err1)
		e.ferr.Set(err2)
		fq.Put(procs...)
		return
	}
	g1 := e.newSubgroup(bs, p1, l1, childRead, wp1)
	g2 := e.newSubgroup(bs, p2, l2, childRead, wp2)
	for _, id := range p1 {
		chans[id] <- g1
	}
	for _, id := range p2 {
		chans[id] <- g2
	}
}

// splitFrontier partitions the frontier into two contiguous halves of
// roughly equal tuple weight, so both subgroups inherit comparable work.
func splitFrontier(leaves []*leafState) (a, b []*leafState) {
	var total int64
	for _, l := range leaves {
		total += l.n
	}
	var acc int64
	cut := 1 // both halves must be non-empty
	for i, l := range leaves {
		acc += l.n
		if acc >= total/2 {
			cut = i + 1
			break
		}
	}
	if cut >= len(leaves) {
		cut = len(leaves) - 1
	}
	if cut < 1 {
		cut = 1
	}
	return leaves[:cut], leaves[cut:]
}

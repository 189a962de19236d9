package core

import (
	"fmt"
	"os"
	"runtime/debug"
	"sync/atomic"
	"time"

	"repro/internal/alist"
	"repro/internal/dataset"
	"repro/internal/probe"
	"repro/internal/sched"
	"repro/internal/split"
	"repro/internal/trace"
	"repro/internal/tree"
)

// segRef locates a leaf's attribute list inside a store slot.
type segRef struct {
	slot int
	off  int64
}

// childInfo describes one child produced by a leaf's split.
type childInfo struct {
	node     *tree.Node
	n        int64
	hist     []int64
	terminal bool // purity pre-test: child will not be processed further
	segs     []segRef
	rowLo    int // Hist only: start of the child's row-index range
}

// leafState is the engine's working state for one frontier leaf.
type leafState struct {
	node      *tree.Node
	parentIdx int // index of parent in the previous frontier; -1 for root
	n         int64
	hist      []int64
	segs      []segRef
	cands     []split.Candidate
	win       split.Candidate
	didSplit  bool
	prb       probe.Leaf
	children  [2]*childInfo

	// Hist-engine state: the leaf's tuples are rows idx[rowLo:rowLo+n] of
	// the engine's row-index permutation, and histLeft routes the winning
	// attribute's bins to the children.
	rowLo    int
	histLeft []bool

	// Scheduling state for the dynamic (per-leaf) schemes.
	eNext atomic.Int64 // next E attribute to grab
	eDone atomic.Int64 // completed E units
	sNext atomic.Int64 // next S attribute to grab
	sDone atomic.Int64 // completed S units
}

// engine holds the shared state of one build.
type engine struct {
	cfg     Config
	schema  *dataset.Schema
	tbl     *dataset.Table
	nattr   int
	nclass  int
	ntuples int
	store   alist.Store
	bscan   alist.BufferedScanner // non-nil when store scans through caller buffers
	probes  probe.Factory
	timings Timings
	rec     *trace.Recorder

	tmpDir string        // non-empty when we created it and must remove it
	ferr   sched.ErrOnce // the build's first-error latch, shared by every worker
}

// ErrWorkerPanic marks a build failure caused by a recovered panic in a
// worker goroutine (or in the build goroutine itself for the serial
// engine). The panic is contained: peers are released from every barrier,
// condition wait and FREE-queue channel, temp storage is torn down, and
// Build returns this error instead of crashing the process. It aliases
// sched.ErrWorkerPanic, the shared containment error of every scheduler.
var ErrWorkerPanic = sched.ErrWorkerPanic

// Build grows a decision tree over tbl according to cfg. It returns the
// tree and the phase timing breakdown. The named results let the cleanup
// defers below fold teardown failures (store Close, temp-dir removal) and
// recovered panics into the returned error.
func Build(tbl *dataset.Table, cfg Config) (tr *tree.Tree, tm Timings, err error) {
	// Registered first so it runs last: by the time a panic (the serial
	// engine's, or one re-thrown during unwinding) reaches this recover,
	// the store has been closed and the temp dir removed.
	defer func() {
		if p := recover(); p != nil {
			tr = nil
			err = fmt.Errorf("%w: %v\n%s", ErrWorkerPanic, p, debug.Stack())
		}
	}()
	cfg, err = cfg.withDefaults()
	if err != nil {
		return nil, Timings{}, err
	}
	e := &engine{
		cfg:     cfg,
		schema:  tbl.Schema(),
		tbl:     tbl,
		nattr:   tbl.Schema().NumAttrs(),
		nclass:  tbl.Schema().NumClasses(),
		ntuples: tbl.NumTuples(),
		rec:     cfg.Recorder,
	}
	if e.ntuples == 0 {
		return nil, Timings{}, fmt.Errorf("core: empty training set")
	}
	if cfg.AttrMask != nil && len(cfg.AttrMask) != e.nattr {
		return nil, Timings{}, fmt.Errorf("core: AttrMask has %d entries, schema has %d attributes",
			len(cfg.AttrMask), e.nattr)
	}

	// The Hist engine has no attribute lists: no store, no setup/sort
	// phases, no probes. Everything — including the binning pass — runs
	// inside the build wall clock, recorded as its own phase.
	if cfg.Algorithm == Hist {
		root := e.setupHist()
		t0 := time.Now()
		err = e.runHist(root)
		e.timings.Build = time.Since(t0)
		if err != nil {
			return nil, e.timings, err
		}
		tr = &tree.Tree{Root: root.node, Schema: e.schema}
		renumber(tr)
		return tr, e.timings, nil
	}

	// Two levels' lists are live at once; SUBTREE starts there and grows its
	// slot pool on demand, up to 4 per concurrently active group.
	slots := 2 * e.levelWidth()
	if cfg.storeOverride != nil {
		e.store = cfg.storeOverride
		if err := e.store.EnsureSlots(slots); err != nil {
			return nil, Timings{}, err
		}
	} else {
		switch cfg.Storage {
		case Memory:
			e.store = alist.NewMemStore(e.nattr, slots)
		case Disk:
			dir := cfg.TempDir
			if dir == "" {
				d, mkErr := os.MkdirTemp("", "parclass-alist-")
				if mkErr != nil {
					return nil, Timings{}, fmt.Errorf("core: creating temp dir: %w", mkErr)
				}
				dir = d
				e.tmpDir = d
				// Registered before the store constructors run, so a
				// constructor failure can no longer leak the directory;
				// LIFO defer order puts this removal after the store's
				// Close below.
				defer func() {
					if rmErr := os.RemoveAll(d); rmErr != nil && err == nil {
						tr = nil
						err = fmt.Errorf("core: removing temp dir: %w", rmErr)
					}
				}()
			}
			if cfg.CombinedFiles {
				st, cErr := alist.NewCombinedFileStore(dir, e.nattr, slots, e.ntuples)
				if cErr != nil {
					return nil, Timings{}, cErr
				}
				e.store = st
			} else {
				st, cErr := alist.NewFileStore(dir, e.nattr, slots)
				if cErr != nil {
					return nil, Timings{}, cErr
				}
				e.store = st
			}
		}
	}
	if cfg.StoreWrap != nil {
		e.store = cfg.StoreWrap(e.store)
	}
	// Transient store faults (interrupted syscalls, short writes, injected
	// chaos faults) are healed in place by a bounded retry layer; permanent
	// errors pass straight through to the engine error paths.
	e.store = alist.Retrying(e.store, cfg.Retry)
	e.bscan, _ = e.store.(alist.BufferedScanner)
	defer func() {
		if cErr := e.store.Close(); cErr != nil && err == nil {
			tr = nil
			err = fmt.Errorf("core: closing store: %w", cErr)
		}
	}()

	fac, err := probe.NewFactory(cfg.Probe, e.ntuples)
	if err != nil {
		return nil, Timings{}, err
	}
	e.probes = fac

	root, err := e.setup()
	if err != nil {
		return nil, Timings{}, err
	}

	t0 := time.Now()
	switch cfg.Algorithm {
	case Serial:
		err = e.runSerial(root)
	case Basic, FWK, MWK:
		err = e.runGroup(root)
	case Subtree:
		err = e.runSubtree(root)
	case RecPar:
		err = e.runRecPar(root)
	}
	e.timings.Build = time.Since(t0)
	if err != nil {
		return nil, e.timings, err
	}

	tr = &tree.Tree{Root: root.node, Schema: e.schema}
	renumber(tr)
	if e.cfg.Trace != nil {
		e.cfg.Trace.NAttrs = e.nattr
		e.cfg.Trace.NTuples = e.ntuples
		e.cfg.Trace.SetupSeconds = e.timings.Setup.Seconds()
		e.cfg.Trace.SortSeconds = e.timings.Sort.Seconds()
		e.cfg.Trace.BuildSeconds = e.timings.Build.Seconds()
	}
	return tr, e.timings, nil
}

// levelWidth is the number of per-attribute slots one level's lists span in
// the double-buffered file scheme: K for the windowed schemes, a left/right
// pair otherwise.
func (e *engine) levelWidth() int {
	if e.cfg.Algorithm == FWK || e.cfg.Algorithm == MWK {
		return e.cfg.WindowK
	}
	return 2
}

// pairBase returns the first slot of the level's slot group for the
// double-buffered schemes.
func (e *engine) pairBase(level int) int {
	return (level % 2) * e.levelWidth()
}

// levelSlots returns every slot of the level's slot group.
func (e *engine) levelSlots(level int) []int {
	slots := make([]int, e.levelWidth())
	for i := range slots {
		slots[i] = e.pairBase(level) + i
	}
	return slots
}

// setup builds the initial attribute lists (the paper's setup phase), sorts
// the continuous ones (the sort phase), and writes them into slot 0 of each
// attribute. It returns the root leaf state.
func (e *engine) setup() (*leafState, error) {
	histInt := e.tbl.ClassHistogram()
	hist := make([]int64, e.nclass)
	for j, c := range histInt {
		hist[j] = int64(c)
	}
	n := int64(e.ntuples)

	lists := make([][]alist.Record, e.nattr)

	// Every phase is a farm over the attributes, which are independent
	// tasks (the paper's "parallelizing the setup phase more aggressively").
	// task gets the worker id so per-worker buffers need no locking.
	workers := min(e.cfg.Procs, e.nattr)
	phase := func(d *time.Duration, task func(w, a int) error) error {
		t0 := time.Now()
		defer func() { *d += time.Since(t0) }()
		return sched.Run(workers, e.nattr, nil, func(w, a int) error {
			if err := e.cancelled(); err != nil {
				return err
			}
			return task(w, a)
		})
	}

	// Phase 1 (setup): create the attribute lists.
	if err := phase(&e.timings.Setup, func(_, a int) error {
		lists[a] = alist.FromTable(e.tbl, a)
		return nil
	}); err != nil {
		return nil, err
	}

	// Phase 2 (sort): pre-sort continuous lists by value, one radix-sort
	// buffer per worker rather than per attribute.
	scratch := make([][]alist.Record, workers)
	if err := phase(&e.timings.Sort, func(w, a int) error {
		if e.schema.Attrs[a].Kind == dataset.Continuous {
			scratch[w] = alist.SortByValue(lists[a], scratch[w])
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// Phase 3 (setup): write lists into slot 0.
	if err := phase(&e.timings.Setup, func(_, a int) error {
		off, err := e.store.Reserve(a, 0, e.ntuples)
		if err != nil {
			return err
		}
		if err := e.store.WriteAt(a, 0, off, lists[a]); err != nil {
			return err
		}
		lists[a] = nil
		return nil
	}); err != nil {
		return nil, err
	}

	rootNode := &tree.Node{
		Level:       0,
		N:           n,
		ClassCounts: hist,
		Class:       tree.MajorityClass(hist),
	}
	root := &leafState{
		node:      rootNode,
		parentIdx: -1,
		n:         n,
		hist:      hist,
		segs:      make([]segRef, e.nattr),
		cands:     make([]split.Candidate, e.nattr),
	}
	for a := range root.segs {
		root.segs[a] = segRef{slot: 0, off: 0}
	}
	return root, nil
}

// rootFrontier returns root as a one-leaf frontier unless the root is
// already terminal.
func (e *engine) rootFrontier(root *leafState) []*leafState {
	if e.terminal(0, root.n, root.hist) {
		return nil
	}
	return []*leafState{root}
}

// terminal implements the stopping rule: pure node, too few tuples, or
// depth bound reached.
func (e *engine) terminal(level int, n int64, hist []int64) bool {
	if n < e.cfg.MinSplit {
		return true
	}
	if e.cfg.MaxDepth > 0 && level >= e.cfg.MaxDepth {
		return true
	}
	for _, c := range hist {
		if c == n {
			return true
		}
	}
	return false
}

// cancelled reports the build context's error, checked at work-unit
// granularity so cancellation propagates through the ordinary error paths.
func (e *engine) cancelled() error {
	if e.cfg.Context == nil {
		return nil
	}
	return e.cfg.Context.Err()
}

// scan streams a list region, staging file-store reads through the worker's
// scratch IO buffer so steady-state scans allocate nothing.
func (e *engine) scan(sc *scratch, attr, slot int, off int64, n int, fn func([]alist.Record) error) error {
	if e.bscan != nil && sc != nil {
		return e.bscan.ScanBuf(attr, slot, off, n, &sc.io, fn)
	}
	return e.store.Scan(attr, slot, off, n, fn)
}

// evalLeafAttr is one E work unit: find the best split of attribute a at
// leaf l, storing the candidate in l.cands[a]. The evaluator and the scan
// callback come from the worker's scratch, so the unit is allocation-free.
func (e *engine) evalLeafAttr(l *leafState, a int, sc *scratch) error {
	if err := e.cancelled(); err != nil {
		return err
	}
	if e.cfg.AttrMask != nil && !e.cfg.AttrMask[a] {
		// Feature-subsampled builds never split on a masked attribute; the
		// zero Candidate is invalid and loses every winner vote.
		l.cands[a] = split.Candidate{}
		return nil
	}
	sr := l.segs[a]
	if e.schema.Attrs[a].Kind == dataset.Continuous {
		sc.cont.Reset(a, l.hist)
		if err := e.scan(sc, a, sr.slot, sr.off, int(l.n), sc.contScan); err != nil {
			return err
		}
		l.cands[a] = sc.cont.Finish()
		return nil
	}
	card := e.schema.Attrs[a].Cardinality()
	sc.cat.Reset(a, card, l.hist, e.cfg.MaxEnumCard)
	if err := e.scan(sc, a, sr.slot, sr.off, int(l.n), sc.catScan); err != nil {
		return err
	}
	l.cands[a] = sc.cat.Finish()
	return nil
}

// vote selects leaf l's winning split among its per-attribute candidates
// into l.win, demoting it when the gini gain falls short of MinGiniGain, and
// reports whether the leaf splits.
func (e *engine) vote(l *leafState) bool {
	best := split.Candidate{}
	for _, c := range l.cands {
		if c.Better(best) {
			best = c
		}
	}
	if best.Valid && e.cfg.MinGiniGain > 0 &&
		split.Gini(l.hist, l.n)-best.Gini < e.cfg.MinGiniGain {
		best.Valid = false
	}
	l.win = best
	return best.Valid
}

// winnerAndProbe is the W work unit for a leaf: select the global winner
// among the per-attribute candidates, scan the winning attribute's list to
// build the probe and the children's class histograms, run the purity
// pre-test, and attach child nodes. It does not assign child storage; see
// registerChildren.
func (e *engine) winnerAndProbe(l *leafState, sc *scratch) error {
	if err := e.cancelled(); err != nil {
		return err
	}
	if !e.vote(l) {
		return nil // leaf stays a leaf (no usable split)
	}
	best := l.win
	prb := e.probes.ForLeaf(best.NLeft, best.NRight)
	// The child histograms escape into the tree nodes, so they are the one
	// per-leaf allocation W keeps.
	histL := make([]int64, e.nclass)
	histR := make([]int64, e.nclass)
	if err := e.probeScan(l, prb, 0, l.n, histL, histR, sc); err != nil {
		return err
	}
	var nl, nr int64
	for j := 0; j < e.nclass; j++ {
		nl += histL[j]
		nr += histR[j]
	}
	if nl != best.NLeft || nr != best.NRight {
		return fmt.Errorf("core: winner scan of attr %d produced %d/%d records, candidate promised %d/%d",
			best.Attr, nl, nr, best.NLeft, best.NRight)
	}
	prb.Seal()
	l.prb = prb
	e.attachChildren(l, histL, histR)
	return nil
}

// probeScan is the W scan over records [lo,hi) of leaf l's winning list: it
// sets each record's probe bit in prb and counts the children's classes into
// histL and histR. RecPar runs it per chunk; chunk tids are disjoint, so the
// probe's word atomics compose.
func (e *engine) probeScan(l *leafState, prb probe.Leaf, lo, hi int64, histL, histR []int64, sc *scratch) error {
	win := l.win
	sr := l.segs[win.Attr]
	// Write-combine the probe bits when the design allows it: one atomic Or
	// plus one atomic AndNot per 64 tids instead of one RMW per record.
	batched := sc.wb != nil && sc.wb.Begin(prb)
	err := e.scan(sc, win.Attr, sr.slot, sr.off+lo, int(hi-lo), func(recs []alist.Record) error {
		if batched {
			for i := range recs {
				left := win.GoesLeft(recs[i].Value)
				sc.wb.Set(recs[i].Tid, left)
				if left {
					histL[recs[i].Class]++
				} else {
					histR[recs[i].Class]++
				}
			}
			return nil
		}
		for i := range recs {
			left := win.GoesLeft(recs[i].Value)
			prb.Set(recs[i].Tid, left)
			if left {
				histL[recs[i].Class]++
			} else {
				histR[recs[i].Class]++
			}
		}
		return nil
	})
	if batched {
		sc.wb.Flush()
	}
	return err
}

// attachChildren hangs leaf l's two children, built from their class
// histograms, under its node with the winning split l.win, running the
// purity pre-test on each. A HIST child's row range is its side of the
// leaf's range.
func (e *engine) attachChildren(l *leafState, histL, histR []int64) {
	childLevel := l.node.Level + 1
	mk := func(hist []int64, n int64, rowLo int) *childInfo {
		node := &tree.Node{
			Level:       childLevel,
			N:           n,
			ClassCounts: hist,
			Class:       tree.MajorityClass(hist),
		}
		return &childInfo{
			node:     node,
			n:        n,
			hist:     hist,
			terminal: e.terminal(childLevel, n, hist),
			rowLo:    rowLo,
		}
	}
	l.children[0] = mk(histL, l.win.NLeft, l.rowLo)
	l.children[1] = mk(histR, l.win.NRight, l.rowLo+int(l.win.NLeft))
	winCopy := l.win
	l.node.Split = &winCopy
	l.node.Left = l.children[0].node
	l.node.Right = l.children[1].node
	l.didSplit = true
}

// registerChildren reserves the attribute-list regions of split leaf l's
// valid children, each in the slot place returns for its side (0 left, 1
// right). Terminal children are never registered: their records are dropped
// during the split, the paper's purity pre-test payoff.
func (e *engine) registerChildren(l *leafState, place func(side int) int) error {
	if !l.didSplit {
		return nil
	}
	for side, c := range l.children {
		if c.terminal {
			continue
		}
		slot := place(side)
		c.segs = make([]segRef, e.nattr)
		for a := 0; a < e.nattr; a++ {
			off, err := e.store.Reserve(a, slot, int(c.n))
			if err != nil {
				return err
			}
			c.segs[a] = segRef{slot: slot, off: off}
		}
	}
	return nil
}

// splitLeafAttr is one S work unit: route attribute a's records of leaf l to
// its children using the probe, preserving order. Records destined for
// terminal (pure) children are dropped. The routing itself is the run-length
// kernel in scratch.splitRuns; this wrapper arms the worker's appenders over
// the children's reserved regions and closes them (verifying exact fill).
func (e *engine) splitLeafAttr(l *leafState, a int, sc *scratch) error {
	if err := e.cancelled(); err != nil {
		return err
	}
	if !l.didSplit {
		return nil
	}
	sc.useL, sc.useR = false, false
	if c := l.children[0]; !c.terminal {
		sc.apL.Reset(e.store, a, c.segs[a].slot, c.segs[a].off, int(c.n))
		sc.useL = true
	}
	if c := l.children[1]; !c.terminal {
		sc.apR.Reset(e.store, a, c.segs[a].slot, c.segs[a].off, int(c.n))
		sc.useR = true
	}
	sc.armProbe(l.prb, e.probes.Relabels())
	sr := l.segs[a]
	if err := e.scan(sc, a, sr.slot, sr.off, int(l.n), sc.splitScan); err != nil {
		return err
	}
	if sc.useL {
		if err := sc.apL.Close(); err != nil {
			return err
		}
	}
	if sc.useR {
		if err := sc.apR.Close(); err != nil {
			return err
		}
	}
	return nil
}

// childLeafState wraps a registered, non-terminal child as a frontier leaf.
func childLeafState(c *childInfo, parentIdx int, nattr int) *leafState {
	return &leafState{
		node:      c.node,
		parentIdx: parentIdx,
		n:         c.n,
		hist:      c.hist,
		segs:      c.segs,
		cands:     make([]split.Candidate, nattr),
		rowLo:     c.rowLo,
	}
}

// releaseLeaf frees per-leaf resources after its split completes.
func releaseLeaf(l *leafState) {
	if l.prb != nil {
		l.prb.Release()
		l.prb = nil
	}
	l.segs = nil
	l.cands = nil
}

// levelEnd closes a level for the master: it builds the next frontier in
// leaf order, left child before right, releases the level's leaves and
// empties the given slots for reuse by the level after next (the paper's
// fixed-file reuse). Once the build has failed it returns no frontier, so
// every worker stops at the level boundary.
func (e *engine) levelEnd(frontier []*leafState, slots ...int) []*leafState {
	var next []*leafState
	for li, l := range frontier {
		if !e.ferr.Failed() && l.didSplit {
			for _, c := range l.children {
				if !c.terminal {
					next = append(next, childLeafState(c, li, e.nattr))
				}
			}
		}
		releaseLeaf(l)
	}
	if err := e.resetSlots(slots...); err != nil {
		e.ferr.Set(err)
	}
	if e.ferr.Failed() {
		return nil
	}
	return next
}

// resetSlots empties the given slots across all attributes, making them
// reusable for the level after next (the paper's fixed-file reuse).
func (e *engine) resetSlots(slots ...int) error {
	for _, s := range slots {
		for a := 0; a < e.nattr; a++ {
			if err := e.store.Reset(a, s); err != nil {
				return err
			}
		}
	}
	return nil
}

// renumber assigns node IDs in BFS order so that identical trees built by
// different schemes also carry identical IDs.
func renumber(t *tree.Tree) {
	if t.Root == nil {
		return
	}
	id := 0
	queue := []*tree.Node{t.Root}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		n.ID = id
		id++
		if !n.IsLeaf() {
			queue = append(queue, n.Left, n.Right)
		}
	}
}

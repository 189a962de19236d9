package core

import (
	"fmt"
	"time"

	"repro/internal/dataset"
	"repro/internal/hist"
	"repro/internal/sched"
	"repro/internal/split"
	"repro/internal/trace"
	"repro/internal/tree"
)

// The HIST scheme: instead of sorted attribute lists, the training table is
// binned once (quantile-sketch cuts per continuous attribute, category codes
// for categorical ones) and the tree grows over per-node class×bin
// histograms. The binning is an attribute farm (binHist) that ends before
// the group starts; levelHist is the level body runGroup drives. Per level
// the phases are:
//
//	E-local:  row-parallel — each worker accumulates its contiguous share of
//	          every frontier leaf's rows into its private histogram arena.
//	E-merge:  attribute-parallel — workers grab attributes with the group's
//	          E counter, sum the per-worker histograms for that attribute
//	          across all leaves, and search the bin boundaries for the
//	          attribute's best split.
//	W:        the master votes the per-attribute winners, runs the purity
//	          pre-test, and attaches children (child histograms are read off
//	          the winning attribute's merged histogram — no data scan).
//	S:        leaf-parallel — workers grab leaves with the group's S counter
//	          and stably partition the leaf's slice of the global row-index
//	          permutation in place.
//
// Histogram subtraction (Meng et al.) halves the accumulation: when a
// split leaf's two children both go on, W keeps the leaf's merged histogram
// instead of returning it to the pool. If the siblings land in one block of
// the next level, only the smaller is accumulated, and E-merge derives the
// larger as parent − smaller in the parent's buffer, with no per-worker
// arena to zero or merge. Siblings split across blocks are both accumulated.
//
// Histograms are integer sums and the partition is stable, so the tree is
// byte-identical for every processor count and with or without
// subtraction. The frontier is processed in blocks of leaves sized so each
// worker's arena stays within a fixed byte budget regardless of tree width.

// histArenaBudget bounds each worker's local histogram arena in bytes; the
// frontier block size is however many leaves fit.
const histArenaBudget = 32 << 20

// histRetainBudget bounds the bytes of parent histograms retained for
// subtraction. The pool behind it is sized once, in binHist; a parent that
// finds it full is not retained and its children are accumulated directly.
const histRetainBudget = histArenaBudget / 4

// histRetainMinRows is the smallest larger child worth a retained parent:
// subtracting saves accumulating that child's rows, so a budget-bound pool
// goes to the splits where it saves the most.
const histRetainMinRows = 256

// histMaxBlock caps the leaves per frontier block so the master's W pass
// between barriers stays short even when the stride is tiny.
const histMaxBlock = 64

// histState is the HIST engine's shared build state, fixed once binning
// ends: the binned matrix, the row-index permutation (a leaf's rows are
// idx[rowLo:rowLo+n]), the leaf block size and every worker's local
// histogram arena (read by all workers in E-merge). The master alone moves
// merged histograms between the pool's free list, the leaves of the block
// being built and the retained parents, of which at most retainCap are
// held at once.
type histState struct {
	m         *hist.Matrix
	idx       []uint32
	blockCap  int
	arenas    [][]int64
	free      [][]int64
	retained  int
	retainCap int
}

// setupHist creates the Hist engine's root leaf. The class-histogram pass
// is the engine's whole setup phase: there are no attribute lists to build
// and nothing to sort.
func (e *engine) setupHist() *leafState {
	t0 := time.Now()
	histInt := e.tbl.ClassHistogram()
	h := make([]int64, e.nclass)
	for j, c := range histInt {
		h[j] = int64(c)
	}
	n := int64(e.ntuples)
	rootNode := &tree.Node{
		Level:       0,
		N:           n,
		ClassCounts: h,
		Class:       tree.MajorityClass(h),
	}
	e.timings.Setup += time.Since(t0)
	return &leafState{
		node:      rootNode,
		parentIdx: -1,
		n:         n,
		hist:      h,
		cands:     make([]split.Candidate, e.nattr),
	}
}

// histUnit gates every HIST work unit: the build's cancellation check, then
// the chaos seam for phase on worker id.
func (e *engine) histUnit(phase string, id int) error {
	if err := e.cancelled(); err != nil {
		return err
	}
	if e.cfg.histHook == nil {
		return nil
	}
	return e.cfg.histHook(phase, id)
}

// binHist is the HIST binning phase, an attribute farm like setup's:
// workers grab attributes and bin their columns, each column written by
// exactly one worker. The build goroutine then lays the matrix out and
// sizes the blocks and arenas. A bin error or panic returns here, before
// any level runs; every lane records its wait for the farm and the layout
// as idle time.
func (e *engine) binHist() error {
	t0 := time.Now()
	m := hist.NewMatrix(e.schema, e.tbl.ClassColumn())
	samples := make([][]float64, e.cfg.Procs)
	busy := make([]time.Duration, e.cfg.Procs)
	if err := sched.Run(e.cfg.Procs, e.nattr, nil, func(w, a int) error {
		if err := e.histUnit("bin", w); err != nil {
			return err
		}
		t := time.Now()
		if e.schema.Attrs[a].Kind == dataset.Continuous {
			m.BinContinuous(a, e.tbl.ContColumn(a), e.cfg.MaxBins, &samples[w])
		} else if err := m.BinCategorical(a, e.tbl.CatColumn(a), e.schema.Attrs[a].Cardinality()); err != nil {
			return err
		}
		d := time.Since(t)
		busy[w] += d
		e.rec.Lane(w).Add(0, trace.PhaseBin, d)
		return nil
	}); err != nil {
		return err
	}
	m.FinishLayout()
	h := &histState{m: m, idx: make([]uint32, e.ntuples), arenas: make([][]int64, e.cfg.Procs)}
	for i := range h.idx {
		h.idx[i] = uint32(i)
	}
	h.blockCap = min(max(histArenaBudget/8/m.Stride, 1), histMaxBlock)
	if e.cfg.histBlock > 0 {
		h.blockCap = e.cfg.histBlock
	}
	for w := range h.arenas {
		h.arenas[w] = make([]int64, h.blockCap*m.Stride)
	}
	// Retained parents have disjoint rows, each at least histRetainMinRows,
	// so more than ntuples/histRetainMinRows could never be held at once.
	h.retainCap = min(histRetainBudget/8/m.Stride, e.ntuples/histRetainMinRows)
	if e.cfg.histRetain != 0 {
		h.retainCap = max(e.cfg.histRetain, 0)
	}
	// One merged histogram per leaf of a block plus the retained parents:
	// every histogram the build will hold, allocated once.
	nbuf := h.blockCap + h.retainCap
	pool := make([]int64, nbuf*m.Stride)
	h.free = make([][]int64, nbuf)
	for i := range h.free {
		h.free[i] = pool[i*m.Stride : (i+1)*m.Stride : (i+1)*m.Stride]
	}
	e.hs = h
	for w, b := range busy {
		e.rec.Lane(w).AddN(0, trace.PhaseIdle, time.Since(t0)-b, 0)
	}
	return nil
}

// levelHist runs one level of group g as worker id with the HIST policy,
// block by block, four barriers per block. It reports false when the group
// barrier was broken by an abort.
func (e *engine) levelHist(g *group, id int, ln *trace.Lane, sc *scratch) bool {
	// Snapshot the level: the master re-arms g once the last block's
	// barrier has passed, and the block loop must not observe that write.
	h, frontier, lvl, P := e.hs, g.frontier, g.level, len(g.workers)
	m, ferr := h.m, &e.ferr
	for lo := 0; lo < len(frontier); lo += h.blockCap {
		block := frontier[lo:min(lo+h.blockCap, len(frontier))]

		// E-local: accumulate this worker's contiguous row share of every
		// leaf in the block that is not derived by subtraction into the
		// private arena.
		if !ferr.Failed() {
			ferr.Set(e.histUnit("accum", id))
		}
		if !ferr.Failed() {
			t0 := time.Now()
			var units int64
			for li, l := range block {
				if err := e.cancelled(); err != nil {
					ferr.Set(err)
					break
				}
				if l.sib >= 0 {
					continue // derived by subtraction in E-merge
				}
				cell := h.arenas[id][li*m.Stride : (li+1)*m.Stride]
				clear(cell)
				rlo := l.rowLo + id*int(l.n)/P
				rhi := l.rowLo + (id+1)*int(l.n)/P
				if rlo >= rhi {
					continue
				}
				for a := 0; a < e.nattr; a++ {
					m.Accumulate(m.Cell(cell, a), a, h.idx, rlo, rhi)
				}
				units += int64(e.nattr)
			}
			ln.AddN(lvl, trace.PhaseEval, time.Since(t0), units)
		}
		if !g.bar.TimedWait(ln, lvl) {
			return false
		}

		// E-merge: grab attributes, sum the workers' local histograms into
		// each accumulated leaf's merged histogram, then subtract each
		// accumulated sibling from the retained parent histograms, and
		// search each leaf's best split for the grabbed attribute.
		// Attribute slices of the merged histograms and of l.cands are
		// disjoint across workers.
		for !ferr.Failed() {
			a := int(g.eCtr.Add(1) - 1)
			if a >= e.nattr {
				break
			}
			if err := e.histUnit("merge", id); err != nil {
				ferr.Set(err)
				break
			}
			t0 := time.Now()
			for _, derived := range [2]bool{false, true} {
				for li, l := range block {
					if (l.sib >= 0) != derived {
						continue
					}
					dst := m.Cell(l.sum, a)
					if derived {
						src := m.Cell(block[l.sib].sum, a)
						for i := range dst {
							dst[i] -= src[i]
						}
					} else {
						base := li * m.Stride
						copy(dst, m.Cell(h.arenas[0][base:base+m.Stride], a))
						for _, arena := range h.arenas[1:P] {
							src := m.Cell(arena[base:base+m.Stride], a)
							for i := range dst {
								dst[i] += src[i]
							}
						}
					}
					l.cands[a] = e.histBestSplit(m, a, dst, l, sc)
				}
			}
			ln.AddN(lvl, trace.PhaseEval, time.Since(t0), int64(len(block)))
		}
		if !g.bar.TimedWait(ln, lvl) {
			return false
		}

		// W: the master votes winners and attaches children; peers wait at
		// the barrier (as in BASIC). Child class histograms come from the
		// winning attribute's merged histogram — no data scan. Each merged
		// histogram is then retained for the children or returned to the
		// pool, and the next block is handed its buffers.
		if id == 0 && !ferr.Failed() {
			for _, l := range block {
				if err := e.histUnit("winner", id); err != nil {
					ferr.Set(err)
					break
				}
				t0 := time.Now()
				if err := e.histWinner(m, l); err != nil {
					ferr.Set(err)
					break
				}
				h.retire(l)
				ln.Add(lvl, trace.PhaseWinner, time.Since(t0))
			}
			if !ferr.Failed() {
				e.histPlan(frontier, lo+h.blockCap)
			}
			g.eCtr.Store(0)
			g.sCtr.Store(0)
		}
		if !g.bar.TimedWait(ln, lvl) {
			return false
		}

		// S: grab leaves and stably partition each split leaf's row-index
		// range in place. A split whose children are both terminal needs no
		// partition: nothing reads those rows again.
		for !ferr.Failed() {
			li := int(g.sCtr.Add(1) - 1)
			if li >= len(block) {
				break
			}
			l := block[li]
			if !l.didSplit || (l.children[0].terminal && l.children[1].terminal) {
				continue
			}
			if err := e.histUnit("split", id); err != nil {
				ferr.Set(err)
				break
			}
			t0 := time.Now()
			n := int(l.n)
			if cap(sc.rows) < n {
				sc.rows = make([]uint32, n)
			}
			nl := m.PartitionStable(l.win.Attr, h.idx, l.rowLo, l.rowLo+n, l.histLeft, sc.rows[:n])
			if int64(nl) != l.win.NLeft {
				ferr.Set(fmt.Errorf("core: hist partition on attr %d produced %d left rows, candidate promised %d",
					l.win.Attr, nl, l.win.NLeft))
			}
			l.histLeft = nil
			ln.Add(lvl, trace.PhaseSplit, time.Since(t0))
		}
		if !g.bar.TimedWait(ln, lvl) {
			return false
		}
	}
	return true
}

// histBestSplit searches attribute a's merged histogram for leaf l's best
// split: bin boundaries for continuous attributes, SPRINT's subset search
// (fed pre-aggregated counts) for categorical ones.
func (e *engine) histBestSplit(m *hist.Matrix, a int, counts []int64, l *leafState, sc *scratch) split.Candidate {
	if e.cfg.AttrMask != nil && !e.cfg.AttrMask[a] {
		// Feature-subsampled builds never split on a masked attribute.
		return split.Candidate{}
	}
	if e.schema.Attrs[a].Kind == dataset.Continuous {
		return sc.cs.Best(a, counts, m.Cuts[a], l.hist, l.n)
	}
	card := m.NBins[a]
	sc.cat.Reset(a, card, l.hist, e.cfg.MaxEnumCard)
	for b := 0; b < card; b++ {
		for j := 0; j < e.nclass; j++ {
			sc.cat.AddCount(j, b, counts[b*e.nclass+j])
		}
	}
	return sc.cat.Finish()
}

// histWinner is the W work unit for a HIST leaf: vote the per-attribute
// candidates, apply the minimum-gain and purity pre-tests, derive the
// child class histograms from the winning attribute's merged histogram and
// attach child nodes.
func (e *engine) histWinner(m *hist.Matrix, l *leafState) error {
	if !e.vote(l) {
		return nil // leaf stays a leaf (no usable split)
	}
	best := l.win
	leftBin := m.LeftBins(best)
	counts := m.Cell(l.sum, best.Attr)
	histL := make([]int64, e.nclass)
	histR := make([]int64, e.nclass)
	for b := 0; b < m.NBins[best.Attr]; b++ {
		for j := 0; j < e.nclass; j++ {
			c := counts[b*e.nclass+j]
			if leftBin[b] {
				histL[j] += c
			} else {
				histR[j] += c
			}
		}
	}
	var nl, nr int64
	for j := 0; j < e.nclass; j++ {
		nl += histL[j]
		nr += histR[j]
	}
	if nl != best.NLeft || nr != best.NRight {
		return fmt.Errorf("core: hist winner on attr %d routed %d/%d rows, candidate promised %d/%d",
			best.Attr, nl, nr, best.NLeft, best.NRight)
	}
	l.histLeft = leftBin
	e.attachChildren(l, histL, histR)
	return nil
}

// histPlan hands the frontier block starting at lo its merged histograms:
// a pool buffer for every accumulated leaf, and the parent's retained
// histogram for the larger of two siblings that share the block, which is
// then derived by subtraction from the smaller (the left one on a tie).
// Siblings split across blocks are both accumulated and their parent's
// histogram goes back to the pool. Master only, before the block's E-local.
func (e *engine) histPlan(frontier []*leafState, lo int) {
	h := e.hs
	if lo >= len(frontier) {
		return
	}
	block := frontier[lo:min(lo+h.blockCap, len(frontier))]
	for i := 0; i < len(block); i++ {
		l := block[i]
		l.sib = -1
		p := l.parentSum
		if p == nil {
			l.sum = h.pop()
			continue
		}
		// A retained parent's children are adjacent in the frontier, left
		// first, so l is a left child and its sibling is frontier[lo+i+1].
		r := frontier[lo+i+1]
		l.parentSum, r.parentSum = nil, nil
		h.retained--
		if i+1 == len(block) {
			h.free = append(h.free, p)
			l.sum = h.pop()
			continue
		}
		small, large, si := l, r, i
		if r.n < l.n {
			small, large, si = r, l, i+1
		}
		small.sum, small.sib = h.pop(), -1
		large.sum, large.sib = p, si
		if e.cfg.histSubtracted != nil {
			e.cfg.histSubtracted.Add(1)
		}
		i++
	}
}

// pop takes a merged histogram off the pool. The pool holds one buffer per
// block leaf beyond the retained parents, so it is never empty here.
func (h *histState) pop() []int64 {
	b := h.free[len(h.free)-1]
	h.free = h.free[:len(h.free)-1]
	return b
}

// retire disposes of leaf l's merged histogram once W is done with it: a
// split whose children both go on keeps it for their subtraction while the
// pool has room and the larger child is big enough to be worth it;
// otherwise it returns to the pool.
func (h *histState) retire(l *leafState) {
	if l.didSplit && !l.children[0].terminal && !l.children[1].terminal &&
		max(l.children[0].n, l.children[1].n) >= histRetainMinRows && h.retained < h.retainCap {
		l.children[0].parentSum, l.children[1].parentSum = l.sum, l.sum
		h.retained++
	} else {
		h.free = append(h.free, l.sum)
	}
	l.sum = nil
}

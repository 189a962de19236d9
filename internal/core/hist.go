package core

import (
	"fmt"
	"sync/atomic"
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
// histograms. Per level the phases are:
//
//	E-local:  row-parallel — each worker accumulates its contiguous share of
//	          every frontier leaf's rows into its private histogram arena.
//	E-merge:  attribute-parallel — workers grab attributes with an atomic
//	          counter, sum the per-worker histograms for that attribute
//	          across all leaves, and search the bin boundaries for the
//	          attribute's best split.
//	W:        the master votes the per-attribute winners, runs the purity
//	          pre-test, and attaches children (child histograms are read off
//	          the winning attribute's merged histogram — no data scan).
//	S:        leaf-parallel — workers grab leaves and stably partition the
//	          leaf's slice of the global row-index permutation in place.
//
// Histograms are integer sums and the partition is stable, so the tree is
// byte-identical for every processor count. The frontier is processed in
// blocks of leaves sized so each worker's arena stays within a fixed byte
// budget regardless of tree width.

// histArenaBudget bounds each worker's local histogram arena in bytes; the
// frontier block size is however many leaves fit.
const histArenaBudget = 32 << 20

// histMaxBlock caps the leaves per frontier block so the master's W pass
// between barriers stays short even when the stride is tiny.
const histMaxBlock = 64

// histScratch is one HIST worker's reusable state: the local histogram
// arena, the boundary/subset search evaluators, the partition staging
// buffer and the binning sample buffer. After warm-up the steady-state
// loops allocate nothing.
type histScratch struct {
	arena  []int64
	cs     hist.ContSearch
	cat    split.CatEval
	buf    []uint32
	sample []float64
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

// runHist grows the tree with the HIST scheme.
func (e *engine) runHist(root *leafState) error {
	P := e.cfg.Procs
	bar := sched.NewBarrier(P)
	ferr := &e.ferr

	m := hist.NewMatrix(e.schema, e.tbl.ClassColumn())
	idx := make([]uint32, e.ntuples)
	for i := range idx {
		idx[i] = uint32(i)
	}

	frontier := e.rootFrontier(root)
	if len(frontier) == 0 {
		return nil
	}

	// Shared state written only by the master between barriers (blockCap
	// and merged once, after the binning barrier).
	var (
		binCtr, aCtr, lCtr atomic.Int64
		merged             []int64
		blockCap           int
		next               []*leafState
		done               bool
		binFailed          bool
	)
	level := 0
	scs := make([]*histScratch, P)

	hook := func(phase string, id int) bool {
		if e.cfg.histHook == nil {
			return true
		}
		if err := e.cfg.histHook(phase, id); err != nil {
			ferr.Set(err)
			return false
		}
		return true
	}

	worker := func(id int) {
		ln := e.rec.Lane(id)
		sc := &histScratch{}
		scs[id] = sc

		// Bin phase: dynamically grab attributes and bin their columns.
		// Each attribute's column is written by exactly one worker.
		for !ferr.Failed() {
			a := int(binCtr.Add(1) - 1)
			if a >= e.nattr {
				break
			}
			if err := e.cancelled(); err != nil {
				ferr.Set(err)
				break
			}
			if !hook("bin", id) {
				break
			}
			t0 := time.Now()
			if e.schema.Attrs[a].Kind == dataset.Continuous {
				m.BinContinuous(a, e.tbl.ContColumn(a), e.cfg.MaxBins, &sc.sample)
			} else if err := m.BinCategorical(a, e.tbl.CatColumn(a), e.schema.Attrs[a].Cardinality()); err != nil {
				ferr.Set(err)
				break
			}
			ln.Add(0, trace.PhaseBin, time.Since(t0))
		}
		if !bar.TimedWait(ln, 0) {
			return
		}
		if id == 0 {
			if !ferr.Failed() {
				t0 := time.Now()
				m.FinishLayout()
				blockCap = histArenaBudget / 8 / m.Stride
				if blockCap < 1 {
					blockCap = 1
				}
				if blockCap > histMaxBlock {
					blockCap = histMaxBlock
				}
				merged = make([]int64, blockCap*m.Stride)
				ln.AddN(0, trace.PhaseBin, time.Since(t0), 0)
			}
			binFailed = ferr.Failed()
		}
		if !bar.TimedWait(ln, 0) {
			return
		}
		// Unwind on the master's barrier-synchronized snapshot of the bin
		// phase, not on live ferr: a fast peer may already be in the level
		// loop and latch a later error, and reading ferr here would let a
		// slow worker exit while the others wait at a block barrier.
		if binFailed {
			return
		}
		sc.arena = make([]int64, blockCap*m.Stride)

		for {
			// lvl is this iteration's level, captured while the master's
			// level++ is still a barrier away.
			lvl := level
			nblocks := (len(frontier) + blockCap - 1) / blockCap
			for blk := 0; blk < nblocks; blk++ {
				bhi := (blk + 1) * blockCap
				if bhi > len(frontier) {
					bhi = len(frontier)
				}
				block := frontier[blk*blockCap : bhi]

				// E-local: accumulate this worker's contiguous row share of
				// every leaf in the block into the private arena.
				if !ferr.Failed() && hook("accum", id) {
					t0 := time.Now()
					var units int64
					for li, l := range block {
						if err := e.cancelled(); err != nil {
							ferr.Set(err)
							break
						}
						cell := sc.arena[li*m.Stride : (li+1)*m.Stride]
						zeroInt64(cell, m.Stride)
						lo := l.rowLo + id*int(l.n)/P
						hi := l.rowLo + (id+1)*int(l.n)/P
						if lo >= hi {
							continue
						}
						for a := 0; a < e.nattr; a++ {
							m.Accumulate(m.Cell(cell, a), a, idx, lo, hi)
						}
						units += int64(e.nattr)
					}
					ln.AddN(lvl, trace.PhaseEval, time.Since(t0), units)
				}
				if !bar.TimedWait(ln, lvl) {
					return
				}

				// E-merge: grab attributes, sum the workers' local
				// histograms and search each leaf's best split for the
				// grabbed attribute. Attribute slices of merged and of
				// l.cands are disjoint across workers.
				for !ferr.Failed() {
					a := int(aCtr.Add(1) - 1)
					if a >= e.nattr {
						break
					}
					if err := e.cancelled(); err != nil {
						ferr.Set(err)
						break
					}
					if !hook("merge", id) {
						break
					}
					t0 := time.Now()
					for li, l := range block {
						base := li * m.Stride
						dst := m.Cell(merged[base:base+m.Stride], a)
						copy(dst, m.Cell(scs[0].arena[base:base+m.Stride], a))
						for w := 1; w < P; w++ {
							src := m.Cell(scs[w].arena[base:base+m.Stride], a)
							for i := range dst {
								dst[i] += src[i]
							}
						}
						l.cands[a] = e.histBestSplit(m, a, dst, l, sc)
					}
					ln.AddN(lvl, trace.PhaseEval, time.Since(t0), int64(len(block)))
				}
				if !bar.TimedWait(ln, lvl) {
					return
				}

				// W: the master votes winners, attaches children and queues
				// the next frontier; peers wait at the barrier (as in
				// BASIC). Child class histograms come from the winning
				// attribute's merged histogram — no data scan.
				if id == 0 && !ferr.Failed() {
					for li, l := range block {
						if !hook("winner", id) {
							break
						}
						t0 := time.Now()
						if err := e.histWinner(m, l, merged[li*m.Stride:(li+1)*m.Stride]); err != nil {
							ferr.Set(err)
							break
						}
						if l.didSplit {
							for _, c := range l.children {
								if !c.terminal {
									next = append(next, childLeafState(c, blk*blockCap+li, e.nattr))
								}
							}
						}
						l.cands = nil
						ln.Add(lvl, trace.PhaseWinner, time.Since(t0))
					}
					aCtr.Store(0)
					lCtr.Store(0)
				}
				if !bar.TimedWait(ln, lvl) {
					return
				}

				// S: grab leaves and stably partition each split leaf's
				// row-index range in place. A split whose children are both
				// terminal needs no partition: nothing reads those rows
				// again.
				for !ferr.Failed() {
					li := int(lCtr.Add(1) - 1)
					if li >= len(block) {
						break
					}
					l := block[li]
					if !l.didSplit || (l.children[0].terminal && l.children[1].terminal) {
						continue
					}
					if err := e.cancelled(); err != nil {
						ferr.Set(err)
						break
					}
					if !hook("split", id) {
						break
					}
					t0 := time.Now()
					n := int(l.n)
					if cap(sc.buf) < n {
						sc.buf = make([]uint32, n)
					}
					nl := m.PartitionStable(l.win.Attr, idx, l.rowLo, l.rowLo+n, l.histLeft, sc.buf[:n])
					if int64(nl) != l.win.NLeft {
						ferr.Set(fmt.Errorf("core: hist partition on attr %d produced %d left rows, candidate promised %d",
							l.win.Attr, nl, l.win.NLeft))
					}
					l.histLeft = nil
					ln.Add(lvl, trace.PhaseSplit, time.Since(t0))
				}
				if !bar.TimedWait(ln, lvl) {
					return
				}
			}

			// Level bookkeeping by the master.
			if id == 0 {
				if ferr.Failed() {
					next = nil
				}
				frontier = next
				next = nil
				level++
				done = len(frontier) == 0
			}
			if !bar.TimedWait(ln, lvl) {
				return
			}
			if done {
				return
			}
		}
	}

	// A panicking worker can never rejoin the barrier protocol; breaking the
	// barrier releases every surviving peer.
	return sched.Spawn(P, ferr, bar.Abort, worker)
}

// histBestSplit searches attribute a's merged histogram for leaf l's best
// split: bin boundaries for continuous attributes, SPRINT's subset search
// (fed pre-aggregated counts) for categorical ones.
func (e *engine) histBestSplit(m *hist.Matrix, a int, counts []int64, l *leafState, sc *histScratch) split.Candidate {
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
func (e *engine) histWinner(m *hist.Matrix, l *leafState, arena []int64) error {
	if err := e.cancelled(); err != nil {
		return err
	}
	if !e.vote(l) {
		return nil // leaf stays a leaf (no usable split)
	}
	best := l.win
	leftBin := m.LeftBins(best)
	counts := m.Cell(arena, best.Attr)
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

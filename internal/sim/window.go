package sim

import (
	"math"

	"repro/internal/trace"
)

// runWindow simulates the two windowed attribute-data-parallel schemes.
//
// FWK (moving=false): leaves of a level are processed in blocks of K; inside
// a block, processors grab (leaf, attribute) E units leaf by leaf, the last
// processor finishing a leaf's evaluation immediately performs its W
// (pipelining W_i with E_{i+1..K}), a barrier ends the block's evaluation,
// the block's S units are grabbed dynamically, and a second barrier ends the
// block.
//
// MWK (moving=true): no block barriers. Each processor walks the level's
// leaves in order; before touching leaf i it waits on leaf i−K's "done"
// condition (W complete); after a leaf's E units are exhausted it waits for
// that leaf's W and grabs the leaf's S units. Two barriers per level: the
// level's close and the level bookkeeping one, as in FWK.
func (s *simState) runWindow(moving bool) {
	ws := identity(s.procs)
	K := s.windowK
	for li := range s.tr.Levels {
		lv := &s.tr.Levels[li]
		n := len(lv.Leaves)
		if n == 0 {
			continue
		}
		if !moving {
			for lo := 0; lo < n; lo += K {
				hi := lo + K
				if hi > n {
					hi = n
				}
				s.fwkBlock(ws, li, lo, hi)
			}
			// Level bookkeeping barrier (frontier swap by the master).
			s.barrierAll(ws)
			continue
		}
		s.mwkLeaves(ws, lv, 0, n)
		s.barrierAll(ws)
		s.barrierAll(ws)
	}
}

// fwkBlock simulates one FWK block: pipelined E+W, barrier, dynamic S,
// barrier.
func (s *simState) fwkBlock(ws []int, level, lo, hi int) {
	lv := &s.tr.Levels[level]
	nattr := s.tr.NAttrs
	type leafSt struct {
		next int // next E attribute to grab
		done int // completed E units
	}
	leaves := make([]leafSt, hi-lo)
	pos := make([]int, len(ws)) // per-processor leaf cursor within the block
	active := len(ws)
	for active > 0 {
		// Dispatch the runnable processor with the smallest clock.
		w := -1
		for i := range ws {
			if pos[i] >= hi-lo {
				continue
			}
			if w < 0 || s.clock[ws[i]] < s.clock[ws[w]] {
				w = i
			}
		}
		if w < 0 {
			break
		}
		i := pos[w]
		lf := &lv.Leaves[lo+i]
		st := &leaves[i]
		if st.next < nattr {
			a := st.next
			st.next++
			s.exec(ws[w], lf.E[a])
			st.done++
			if st.done == nattr {
				// Last processor finishing leaf i performs W, overlapped
				// with other processors' evaluation of later leaves.
				s.clock[ws[w]] += lf.W
				s.busy[ws[w]] += lf.W
			}
			continue
		}
		pos[w]++
		if pos[w] >= hi-lo {
			active--
		}
	}
	// End-of-block barrier, then the block's S units dynamically.
	s.barrierAll(ws)
	var sCosts []float64
	for i := lo; i < hi; i++ {
		sCosts = append(sCosts, lv.Leaves[i].S...)
	}
	s.listSchedule(ws, sCosts)
	s.barrierAll(ws)
}

// mwkLeaves simulates the MWK policy over leaves [lo,hi) of a level with
// the given processors (the whole level for the MWK scheme; a group's
// slice for the SUBTREE+MWK hybrid). Mirroring the
// goroutine driver: processors sweep the leaves in order; the last
// processor to finish a leaf's E units executes its W and signals the leaf
// done; S units are grabbed during the sweep only when the leaf's W has
// already completed at the processor's current time (otherwise the
// processor keeps moving — this is the W/E pipeline overlap); a completion
// sweep then drains any deferred S units.
func (s *simState) mwkLeaves(ws []int, lv *trace.Level, lo, hi int) {
	nattr := s.tr.NAttrs
	n := hi - lo
	K := s.windowK

	type leafSt struct {
		eNext int
		sNext int
		wDone float64 // time W completed; NaN while pending
	}
	leaves := make([]leafSt, n)
	for i := range leaves {
		leaves[i].wDone = math.NaN()
	}
	// Each processor runs two cursors, exactly as a driver worker does:
	// the main sweep (E + pipelined W + opportunistic S) over all leaves,
	// then — immediately, without waiting for other processors — its own
	// completion sweep draining deferred S units.
	pos := make([]int, len(ws))  // main-sweep leaf cursor
	cpos := make([]int, len(ws)) // completion-sweep leaf cursor

	for {
		// Pick the runnable processor with the smallest clock. A
		// main-sweep processor is blocked while the window throttle's
		// condition (leaf pos−K done) is unresolved; a completion-sweep
		// processor while its current leaf's W is unsignalled.
		w := -1
		for i := range ws {
			switch {
			case pos[i] < n:
				if pos[i] >= K && math.IsNaN(leaves[pos[i]-K].wDone) {
					continue
				}
			case cpos[i] < n:
				if math.IsNaN(leaves[cpos[i]].wDone) {
					continue
				}
			default:
				continue
			}
			if w < 0 || s.clock[ws[i]] < s.clock[ws[w]] {
				w = i
			}
		}
		if w < 0 {
			done := true
			for i := range ws {
				if pos[i] < n || cpos[i] < n {
					done = false
					break
				}
			}
			if done {
				break
			}
			// Cannot happen: the smallest unfinished position's
			// dependency leaf has all units executed, hence wDone set.
			panic("sim: MWK deadlock — no runnable processor")
		}

		if pos[w] < n {
			// Main sweep.
			i := pos[w]
			lf := &lv.Leaves[lo+i]
			st := &leaves[i]
			// Condition wait on leaf i−K: charge a cond pair if the
			// processor actually had to wait.
			if i >= K {
				if t := leaves[i-K].wDone; s.clock[ws[w]] < t {
					s.clock[ws[w]] = t + s.p.Cond
				}
			}
			if st.eNext < nattr {
				a := st.eNext
				st.eNext++
				s.exec(ws[w], lf.E[a])
				if st.eNext == nattr {
					// Last processor finishing leaf i performs W and
					// signals the leaf done.
					s.clock[ws[w]] += lf.W
					s.busy[ws[w]] += lf.W
					st.wDone = s.clock[ws[w]]
				}
				continue
			}
			// Opportunistic S: only if the leaf's W completed by now.
			if !math.IsNaN(st.wDone) && st.wDone <= s.clock[ws[w]] && st.sNext < nattr {
				a := st.sNext
				st.sNext++
				s.exec(ws[w], lf.S[a])
				continue
			}
			pos[w]++
			continue
		}

		// Completion sweep (wDone of cpos[w] is set here).
		i := cpos[w]
		lf := &lv.Leaves[lo+i]
		st := &leaves[i]
		if t := st.wDone; s.clock[ws[w]] < t {
			s.clock[ws[w]] = t + s.p.Cond
		}
		if st.sNext < nattr {
			a := st.sNext
			st.sNext++
			s.exec(ws[w], lf.S[a])
			continue
		}
		cpos[w]++
	}
}

package core

import (
	"time"

	"repro/internal/alist"
	"repro/internal/dataset"
	"repro/internal/sched"
	"repro/internal/split"
	"repro/internal/trace"
)

// runRecPar implements record data parallelism — the scheme used by
// parallel SPRINT on distributed-memory machines, which the paper argues is
// "not well suited to SMP systems since it is likely to cause excessive
// synchronization, and replication of data structures". It is provided as
// the comparison baseline: every processor works on a contiguous 1/P chunk
// of *every* attribute list.
//
//   - E (continuous): pass A gathers per-chunk class histograms; after a
//     barrier each processor seeds a chunk evaluator with the prefix
//     histogram (replicated Cbelow state) and pass B scans again to score
//     candidates, including the chunk-boundary mid-point; a reduction picks
//     the best. Two barriers and two scans per (leaf, attribute) unit.
//   - E (categorical): per-chunk count matrices merged by the master.
//   - W: processors set probe bits for their chunk of the winning list and
//     gather partial child histograms (requires the shared atomic global
//     bit probe); the master merges and registers children.
//   - S: pass 1 counts each chunk's left records, a barrier publishes the
//     counts, prefix sums give every chunk its disjoint output regions, and
//     pass 2 writes them. Again two barriers and two scans per unit.
//
// The per-unit barrier count — Θ(leaves × attributes) per level versus
// BASIC's 4 per level — is exactly the synchronization overhead the paper
// predicts for this design on an SMP.
func (e *engine) runRecPar(root *leafState) error {
	frontier := e.rootFrontier(root)
	if len(frontier) == 0 {
		return nil
	}
	P := e.cfg.Procs
	bar := sched.NewBarrier(P)
	ferr := &e.ferr

	// Per-worker scratch slots; slot w is written only by worker w between
	// barriers and read by others only after the next barrier.
	hists := make([][]int64, P) // pass-A chunk class histograms
	histL := make([][]int64, P) // W partial left histograms
	histR := make([][]int64, P) // W partial right histograms
	for w := 0; w < P; w++ {
		hists[w] = make([]int64, e.nclass)
		histL[w] = make([]int64, e.nclass)
		histR[w] = make([]int64, e.nclass)
	}
	type chunkVal struct {
		first, last float64
		n           int
	}
	vals := make([]chunkVal, P)         // pass-A chunk boundary values
	cands := make([]split.Candidate, P) // pass-B chunk candidates
	cats := make([]*split.CatEval, P)   // categorical chunk matrices (scratch-owned)
	lefts := make([]int64, P)           // S pass-1 chunk left counts

	level := 0

	// chunk returns worker w's record range within a leaf of n records.
	chunk := func(n int64, w int) (int64, int64) {
		lo := n * int64(w) / int64(P)
		hi := n * int64(w+1) / int64(P)
		return lo, hi
	}

	worker := func(id int) {
		ln := e.rec.Lane(id)
		// Per-worker arena; slot-published pieces (cats[id]) point into it
		// and are read by the master strictly between barriers, before the
		// owner reuses them.
		sc := e.newScratch()
		cats[id] = &sc.cat
		for {
			lvl := level
			for _, l := range frontier {
				lo, hi := chunk(l.n, id)

				// ---- E phase: one unit per attribute, chunk-parallel.
				// Every unit performs exactly two barriers regardless of
				// error state, so workers that observe a failure at
				// different moments can never diverge in barrier counts.
				for a := 0; a < e.nattr; a++ {
					sr := l.segs[a]
					if e.schema.Attrs[a].Kind == dataset.Continuous {
						// Pass A: chunk class histogram and boundary values.
						if !ferr.Failed() {
							t0 := time.Now()
							h := hists[id]
							for j := range h {
								h[j] = 0
							}
							v := chunkVal{}
							if err := e.scan(sc, a, sr.slot, sr.off+lo, int(hi-lo), func(recs []alist.Record) error {
								for i := range recs {
									h[recs[i].Class]++
								}
								if v.n == 0 {
									v.first = recs[0].Value
								}
								v.last = recs[len(recs)-1].Value
								v.n += len(recs)
								return nil
							}); err != nil {
								ferr.Set(err)
							}
							vals[id] = v
							ln.Add(lvl, trace.PhaseEval, time.Since(t0))
						}
						if !bar.TimedWait(ln, lvl) {
							return // build aborted by a dead worker's teardown
						}
						if !ferr.Failed() {
							t0 := time.Now()
							// Prefix histogram and previous value (replicated
							// per processor — the paper's "replication of
							// data structures").
							sc.below = zeroInt64(sc.below, e.nclass)
							below := sc.below
							prev := 0.0
							started := false
							for w := 0; w < id; w++ {
								for j := range below {
									below[j] += hists[w][j]
								}
								if vals[w].n > 0 {
									prev = vals[w].last
									started = true
								}
							}
							// Pass B: score candidates within the chunk.
							sc.cont.ResetSeeded(a, l.hist, below, prev, started)
							if err := e.scan(sc, a, sr.slot, sr.off+lo, int(hi-lo), sc.contScan); err != nil {
								ferr.Set(err)
							}
							cands[id] = sc.cont.Finish()
							ln.AddN(lvl, trace.PhaseEval, time.Since(t0), 0)
						}
						if !bar.TimedWait(ln, lvl) {
							return // build aborted by a dead worker's teardown
						}
						if id == 0 && !ferr.Failed() {
							t0 := time.Now()
							best := split.Candidate{}
							for w := 0; w < P; w++ {
								if cands[w].Better(best) {
									best = cands[w]
								}
							}
							l.cands[a] = best
							ln.AddN(lvl, trace.PhaseEval, time.Since(t0), 0)
						}
						continue
					}
					// Categorical: per-chunk count matrices, master merge.
					if !ferr.Failed() {
						t0 := time.Now()
						card := e.schema.Attrs[a].Cardinality()
						sc.cat.Reset(a, card, l.hist, e.cfg.MaxEnumCard)
						if err := e.scan(sc, a, sr.slot, sr.off+lo, int(hi-lo), sc.catScan); err != nil {
							ferr.Set(err)
						}
						ln.Add(lvl, trace.PhaseEval, time.Since(t0))
					}
					if !bar.TimedWait(ln, lvl) {
						return // build aborted by a dead worker's teardown
					}
					if id == 0 && !ferr.Failed() {
						t0 := time.Now()
						for w := 1; w < P; w++ {
							cats[0].Merge(cats[w])
						}
						l.cands[a] = cats[0].Finish()
						ln.AddN(lvl, trace.PhaseEval, time.Since(t0), 0)
					}
					// Close the unit before cats slots are reused by the
					// next categorical attribute.
					if !bar.TimedWait(ln, lvl) {
						return // build aborted by a dead worker's teardown
					}
				}
				if !bar.TimedWait(ln, lvl) {
					return // build aborted by a dead worker's teardown
				}

				// ---- W phase: chunk-parallel probe construction ----
				if id == 0 && !ferr.Failed() {
					t0 := time.Now()
					if e.vote(l) {
						l.prb = e.probes.ForLeaf(l.win.NLeft, l.win.NRight)
					}
					ln.AddN(lvl, trace.PhaseWinner, time.Since(t0), 0)
				}
				if !bar.TimedWait(ln, lvl) {
					return // build aborted by a dead worker's teardown
				}
				if l.win.Valid && !ferr.Failed() {
					t0 := time.Now()
					// Each worker write-combines its own chunk's probe bits;
					// the scan's flush happens before the barrier that
					// precedes the master's Seal.
					hl := zeroInt64(histL[id], e.nclass)
					hr := zeroInt64(histR[id], e.nclass)
					if err := e.probeScan(l, l.prb, lo, hi, hl, hr, sc); err != nil {
						ferr.Set(err)
					}
					ln.AddN(lvl, trace.PhaseWinner, time.Since(t0), 0)
				}
				if !bar.TimedWait(ln, lvl) {
					return // build aborted by a dead worker's teardown
				}
				if id == 0 && l.win.Valid && !ferr.Failed() {
					t0 := time.Now()
					if err := e.finishRecParW(l, histL, histR, level); err != nil {
						ferr.Set(err)
					}
					ln.Add(lvl, trace.PhaseWinner, time.Since(t0))
				}
				if !bar.TimedWait(ln, lvl) {
					return // build aborted by a dead worker's teardown
				}

				// ---- S phase: one unit per attribute, chunk-parallel;
				// two unconditional barriers per unit (see E phase note).
				if !l.didSplit {
					continue
				}
				for a := 0; a < e.nattr; a++ {
					// Pass 1: count the chunk's left records.
					var nl int64
					if !ferr.Failed() {
						t0 := time.Now()
						sr := l.segs[a]
						prb := l.prb
						if err := e.scan(sc, a, sr.slot, sr.off+lo, int(hi-lo), func(recs []alist.Record) error {
							for i := range recs {
								if prb.Left(recs[i].Tid) {
									nl++
								}
							}
							return nil
						}); err != nil {
							ferr.Set(err)
						}
						lefts[id] = nl
						ln.AddN(lvl, trace.PhaseSplit, time.Since(t0), 0)
					}
					if !bar.TimedWait(ln, lvl) {
						return // build aborted by a dead worker's teardown
					}
					if !ferr.Failed() {
						t0 := time.Now()
						// Disjoint output regions from the prefix sums.
						var prefL int64
						for w := 0; w < id; w++ {
							prefL += lefts[w]
						}
						prefR := lo - prefL
						if err := e.splitChunk(l, a, lo, hi, prefL, prefR, nl, sc); err != nil {
							ferr.Set(err)
						}
						ln.Add(lvl, trace.PhaseSplit, time.Since(t0))
					}
					if !bar.TimedWait(ln, lvl) {
						return // build aborted by a dead worker's teardown
					}
				}
			}
			if !bar.TimedWait(ln, lvl) {
				return // build aborted by a dead worker's teardown
			}

			if id == 0 {
				t0 := time.Now()
				frontier = e.levelEnd(frontier, e.levelSlots(level)...)
				level++
				ln.AddN(lvl, trace.PhaseSplit, time.Since(t0), 0)
			}
			if !bar.TimedWait(ln, lvl) || len(frontier) == 0 {
				return // build aborted by a dead worker's teardown, or done
			}
		}
	}

	// A panicking worker can never rejoin the barrier protocol; breaking the
	// barrier releases every surviving peer.
	return sched.Spawn(P, ferr, bar.Abort, worker)
}

// finishRecParW merges the chunk histograms, seals the probe, attaches
// child nodes with the purity pre-test, and registers storage in the next
// level's slot pair — the serial tail of the record-parallel W phase.
func (e *engine) finishRecParW(l *leafState, histL, histR [][]int64, level int) error {
	hl := make([]int64, e.nclass)
	hr := make([]int64, e.nclass)
	for w := range histL {
		for j := 0; j < e.nclass; j++ {
			hl[j] += histL[w][j]
			hr[j] += histR[w][j]
		}
	}
	l.prb.Seal()
	e.attachChildren(l, hl, hr)
	nextBase := e.pairBase(level + 1)
	return e.registerChildren(l, func(side int) int { return nextBase + side })
}

// splitChunk writes one chunk's records into the children's reserved
// regions at the offsets determined by the prefix sums, reusing the caller's
// scratch appenders and run-length kernel.
func (e *engine) splitChunk(l *leafState, a int, lo, hi, prefL, prefR, nl int64, sc *scratch) error {
	sc.useL, sc.useR = false, false
	if c := l.children[0]; !c.terminal {
		sc.apL.Reset(e.store, a, c.segs[a].slot, c.segs[a].off+prefL, int(nl))
		sc.useL = true
	}
	if c := l.children[1]; !c.terminal {
		sc.apR.Reset(e.store, a, c.segs[a].slot, c.segs[a].off+prefR, int(hi-lo-nl))
		sc.useR = true
	}
	sc.armProbe(l.prb, false) // the record-parallel scheme never relabels
	sr := l.segs[a]
	if err := e.scan(sc, a, sr.slot, sr.off+lo, int(hi-lo), sc.splitScan); err != nil {
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

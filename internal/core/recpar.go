package core

import (
	"time"

	"repro/internal/alist"
	"repro/internal/dataset"
	"repro/internal/split"
	"repro/internal/trace"
)

// RECPAR is record data parallelism — the scheme used by parallel SPRINT on
// distributed-memory machines, which the paper argues is "not well suited
// to SMP systems since it is likely to cause excessive synchronization, and
// replication of data structures". It is provided as the comparison
// baseline: levelRecPar is its level body on the one group runGroup drives,
// and every processor works on a contiguous 1/P chunk of *every* attribute
// list.
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

// chunkVal is a chunk's pass-A summary: its first and last values and its
// record count.
type chunkVal struct {
	first, last float64
	n           int
}

// recParSlots are a RECPAR group's per-worker exchange slots: slot w is
// written only by worker w between barriers and read by its peers only
// after the next barrier.
type recParSlots struct {
	hists        [][]int64         // pass-A chunk class histograms
	histL, histR [][]int64         // W partial child histograms
	vals         []chunkVal        // pass-A chunk boundary values
	cands        []split.Candidate // pass-B chunk candidates
	cats         []*split.CatEval  // categorical chunk matrices (scratch-owned)
	lefts        []int64           // S pass-1 chunk left counts
}

func newRecParSlots(p int) *recParSlots {
	return &recParSlots{
		hists: make([][]int64, p), histL: make([][]int64, p), histR: make([][]int64, p),
		vals: make([]chunkVal, p), cands: make([]split.Candidate, p),
		cats: make([]*split.CatEval, p), lefts: make([]int64, p),
	}
}

// levelRecPar runs one level of group g as worker id with the record-data-
// parallel policy. Every E and S unit performs exactly two barriers and
// every leaf four more regardless of error state, so workers that observe
// a failure at different moments can never diverge in barrier counts. It
// reports false when the group barrier was broken by an abort.
func (e *engine) levelRecPar(g *group, id int, ln *trace.Lane, sc *scratch) bool {
	x, lvl, P := g.rp, g.level, len(g.workers)
	ferr := &e.ferr
	// Slot-published pieces point into the worker's arena and are read by
	// the master strictly between barriers, before the owner reuses them.
	x.cats[id] = &sc.cat
	wait := func() bool { return g.bar.TimedWait(ln, lvl) }
	for _, l := range g.frontier {
		// The worker's record range within the leaf.
		lo, hi := l.n*int64(id)/int64(P), l.n*int64(id+1)/int64(P)

		// ---- E phase: one unit per attribute, chunk-parallel.
		for a := 0; a < e.nattr; a++ {
			sr := l.segs[a]
			if e.schema.Attrs[a].Kind == dataset.Continuous {
				// Pass A: chunk class histogram and boundary values.
				if !ferr.Failed() {
					t0 := time.Now()
					h := split.ResizeZero(x.hists[id], e.nclass)
					x.hists[id] = h
					v := chunkVal{}
					ferr.Set(e.scan(sc, a, sr.slot, sr.off+lo, int(hi-lo), func(recs []alist.Record) error {
						for i := range recs {
							h[recs[i].Class]++
						}
						if v.n == 0 {
							v.first = recs[0].Value
						}
						v.last = recs[len(recs)-1].Value
						v.n += len(recs)
						return nil
					}))
					x.vals[id] = v
					ln.Add(lvl, trace.PhaseEval, time.Since(t0))
				}
				if !wait() {
					return false
				}
				if !ferr.Failed() {
					t0 := time.Now()
					// Prefix histogram and previous value (replicated per
					// processor — the paper's "replication of data
					// structures").
					sc.below = split.ResizeZero(sc.below, e.nclass)
					prev, started := 0.0, false
					for w := 0; w < id; w++ {
						for j, c := range x.hists[w] {
							sc.below[j] += c
						}
						if x.vals[w].n > 0 {
							prev, started = x.vals[w].last, true
						}
					}
					// Pass B: score candidates within the chunk.
					sc.cont.ResetSeeded(a, l.hist, sc.below, prev, started)
					ferr.Set(e.scan(sc, a, sr.slot, sr.off+lo, int(hi-lo), sc.contScan))
					x.cands[id] = sc.cont.Finish()
					ln.AddN(lvl, trace.PhaseEval, time.Since(t0), 0)
				}
				if !wait() {
					return false
				}
				if id == 0 && !ferr.Failed() {
					t0 := time.Now()
					best := split.Candidate{}
					for _, c := range x.cands {
						if c.Better(best) {
							best = c
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
				sc.cat.Reset(a, e.schema.Attrs[a].Cardinality(), l.hist, e.cfg.MaxEnumCard)
				ferr.Set(e.scan(sc, a, sr.slot, sr.off+lo, int(hi-lo), sc.catScan))
				ln.Add(lvl, trace.PhaseEval, time.Since(t0))
			}
			if !wait() {
				return false
			}
			if id == 0 && !ferr.Failed() {
				t0 := time.Now()
				for _, c := range x.cats[1:] {
					x.cats[0].Merge(c)
				}
				l.cands[a] = x.cats[0].Finish()
				ln.AddN(lvl, trace.PhaseEval, time.Since(t0), 0)
			}
			// Close the unit before cats slots are reused by the next
			// categorical attribute.
			if !wait() {
				return false
			}
		}
		if !wait() {
			return false
		}

		// ---- W phase: chunk-parallel probe construction ----
		if id == 0 && !ferr.Failed() {
			t0 := time.Now()
			if e.vote(l) {
				l.prb = e.probes.ForLeaf(l.win.NLeft, l.win.NRight)
			}
			ln.AddN(lvl, trace.PhaseWinner, time.Since(t0), 0)
		}
		if !wait() {
			return false
		}
		if l.win.Valid && !ferr.Failed() {
			t0 := time.Now()
			// Each worker write-combines its own chunk's probe bits; the
			// scan's flush happens before the barrier that precedes the
			// master's Seal.
			x.histL[id] = split.ResizeZero(x.histL[id], e.nclass)
			x.histR[id] = split.ResizeZero(x.histR[id], e.nclass)
			ferr.Set(e.probeScan(l, l.prb, lo, hi, x.histL[id], x.histR[id], sc))
			ln.AddN(lvl, trace.PhaseWinner, time.Since(t0), 0)
		}
		if !wait() {
			return false
		}
		if id == 0 && l.win.Valid && !ferr.Failed() {
			t0 := time.Now()
			ferr.Set(e.finishRecParW(g, l))
			ln.Add(lvl, trace.PhaseWinner, time.Since(t0))
		}
		if !wait() {
			return false
		}

		// ---- S phase: one unit per attribute, chunk-parallel.
		if !l.didSplit {
			continue
		}
		for a := 0; a < e.nattr; a++ {
			// Pass 1: count the chunk's left records.
			var nl int64
			if !ferr.Failed() {
				t0 := time.Now()
				sr, prb := l.segs[a], l.prb
				ferr.Set(e.scan(sc, a, sr.slot, sr.off+lo, int(hi-lo), func(recs []alist.Record) error {
					for i := range recs {
						if prb.Left(recs[i].Tid) {
							nl++
						}
					}
					return nil
				}))
				x.lefts[id] = nl
				ln.AddN(lvl, trace.PhaseSplit, time.Since(t0), 0)
			}
			if !wait() {
				return false
			}
			if !ferr.Failed() {
				t0 := time.Now()
				// Disjoint output regions from the prefix sums.
				var prefL int64
				for _, c := range x.lefts[:id] {
					prefL += c
				}
				ferr.Set(e.splitChunk(l, a, lo, hi, prefL, lo-prefL, nl, sc))
				ln.Add(lvl, trace.PhaseSplit, time.Since(t0))
			}
			if !wait() {
				return false
			}
		}
	}
	return wait()
}

// finishRecParW merges the chunk histograms, checks them against the
// winner, seals the probe, attaches child nodes with the purity pre-test,
// and registers storage at the group's placement — the serial tail of the record-parallel W phase.
func (e *engine) finishRecParW(g *group, l *leafState) error {
	hl := make([]int64, e.nclass)
	hr := make([]int64, e.nclass)
	for w := range g.rp.histL {
		for j := 0; j < e.nclass; j++ {
			hl[j] += g.rp.histL[w][j]
			hr[j] += g.rp.histR[w][j]
		}
	}
	if err := e.sealAndAttach(l, hl, hr); err != nil {
		return err
	}
	return e.registerChildren(l, g.childSlot)
}

// splitChunk writes one chunk's records into the children's reserved
// regions at the offsets determined by the prefix sums, reusing the caller's
// scratch appenders and split kernel.
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
	sc.armProbe(l.prb) // the record-parallel scheme runs the global design only
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

package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	parclass "repro"
)

// scale sizes the workloads. "full" is the catalogue's sizes; "tiny" lets
// smoke_test.go run every code path in a second or two.
type scale struct {
	exactTuples, histTuples, forestTuples, serveTuples int
	// chunkRows is forest_score's rows per PredictValuesBatch call.
	chunkRows int
	// setupRepeats is how many times a run sets up; setup_s is their median.
	setupRepeats int
	// guardRepeats is the traced builds per guard engine.
	guardRepeats int
	// stageIters is the calls per stage of the traced serve stage table.
	stageIters int
	// accSlack lowers every accuracy floor: the floors are for full sizes.
	accSlack float64
}

var scales = map[string]scale{
	"full": {exactTuples: 100000, histTuples: 1000000, forestTuples: 20000, serveTuples: 100000,
		chunkRows: 4096, setupRepeats: 5, guardRepeats: 2, stageIters: 400},
	"tiny": {exactTuples: 2000, histTuples: 20000, forestTuples: 2000, serveTuples: 2000,
		chunkRows: 512, setupRepeats: 2, guardRepeats: 1, stageIters: 20, accSlack: 0.3},
}

func newWorkload(name string, seed int64, sc scale) workload {
	f7 := func(tuples, attrs int) parclass.SyntheticConfig {
		return parclass.SyntheticConfig{Function: 7, Tuples: tuples, Attrs: attrs, Seed: seed, Perturbation: 0.05}
	}
	switch name {
	case "build_exact_f7":
		return &buildWorkload{
			data: f7(sc.exactTuples, 32), holdFrac: 0.2, sc: sc,
			p1:        parclass.Options{Algorithm: parclass.Serial, Prune: true},
			p2:        parclass.Options{Algorithm: parclass.MWK, Procs: 2, Prune: true},
			accFloor:  0.96,
			sameModel: true,
			guards: []guard{
				{"core.basic.build", parclass.Basic}, {"core.fwk.build", parclass.FWK},
				{"core.subtree.build", parclass.Subtree}, {"core.recpar.build", parclass.RecordParallel},
			},
		}
	case "build_hist_1m":
		return &buildWorkload{
			data: f7(sc.histTuples, 9), holdFrac: 0.1, sc: sc,
			p1:       parclass.Options{Algorithm: parclass.Hist, Procs: 1, Prune: true},
			p2:       parclass.Options{Algorithm: parclass.Hist, Procs: 2, Prune: true},
			accFloor: 0.97,
		}
	case "forest_score":
		// As many rows again are generated as the holdout: 4000 rows would
		// leave the accuracy with a spread of its own.
		return &forestWorkload{data: f7(2*sc.forestTuples, 32), seed: seed, sc: sc}
	case "serve_bulk":
		return &serveWorkload{data: f7(sc.serveTuples, 32), seed: seed, sc: sc, bulk: true}
	case "serve_online_mix":
		return &serveWorkload{data: f7(sc.serveTuples, 32), seed: seed, sc: sc}
	}
	return nil
}

// buildWorkload times Train at a single-threaded baseline (p1) and at the
// headline parallel config (p2), in alternating pairs on the same data.
type buildWorkload struct {
	data     parclass.SyntheticConfig
	holdFrac float64
	sc       scale
	p1, p2   parclass.Options
	accFloor float64
	// sameModel: p1 and p2 must serialize to the same bytes (the exact
	// engines grow one tree whatever the schedule).
	sameModel bool
	// guards are further engines timed at P=2 in the traced run only.
	guards []guard

	train, hold  *parclass.Dataset
	genS, splitS series
}

// guard names a span; its metric is the span name plus "_s".
type guard struct {
	span string
	alg  parclass.Algorithm
}

func (w *buildWorkload) setup(l *lane, parent int64) error {
	var err error
	_, w.train, w.hold, err = generate(w.data, w.holdFrac, l, parent, &w.genS, &w.splitS)
	return err
}

func (w *buildWorkload) close() {}

// generate makes the synthetic table and splits off the holdout, timing both.
func generate(cfg parclass.SyntheticConfig, holdFrac float64, l *lane, parent int64, genS, splitS *series) (all, train, hold *parclass.Dataset, err error) {
	t0 := time.Now()
	all, err = parclass.Synthetic(cfg)
	t1 := time.Now()
	if err != nil {
		return nil, nil, nil, err
	}
	train, hold = all.SplitHoldout(holdFrac)
	t2 := time.Now()
	l.add(parent, "synth.generate", t0, t1)
	l.add(parent, "dataset.split_holdout", t1, t2)
	*genS = append(*genS, t1.Sub(t0).Seconds())
	*splitS = append(*splitS, t2.Sub(t1).Seconds())
	return all, train, hold, nil
}

// built is one timed Train call.
type built struct {
	model   *parclass.Model
	wallS   float64
	allocB  uint64
	mallocs uint64
}

// timedTrain runs one Train call. A collection runs first, outside the
// timing, so that the previous call's garbage is not collected on this
// call's clock (on 2 cores the background collector otherwise takes one of
// them for part of the build: 0.75-1.2 s instead of 0.75-0.81 s).
func timedTrain(ds *parclass.Dataset, opt parclass.Options, l *lane, parent int64, name string) (built, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	m, err := parclass.Train(ds, opt)
	t1 := time.Now()
	if err != nil {
		return built{}, fmt.Errorf("Train(%v, procs %d): %w", opt.Algorithm, opt.Procs, err)
	}
	runtime.ReadMemStats(&after)
	l.add(parent, name, t0, t1)
	return built{m, t1.Sub(t0).Seconds(), after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs}, nil
}

// warmUp runs one untimed pair, so that the first timed call does not pay
// for growing the heap.
func (w *buildWorkload) warmUp() error {
	for _, opt := range []parclass.Options{w.p1, w.p2} {
		if _, err := timedTrain(w.train, opt, nil, 0, ""); err != nil {
			return err
		}
	}
	return nil
}

// pairs runs alternating (p1, p2) pairs for the given time, at least two.
func (w *buildWorkload) pairs(seconds float64, l *lane, parent int64) (p1, p2 []built, err error) {
	start := time.Now()
	for len(p2) < 2 || time.Since(start).Seconds() < seconds {
		a, err := timedTrain(w.train, w.p1, l, parent, "core.train_p1")
		if err != nil {
			return nil, nil, err
		}
		b, err := timedTrain(w.train, w.p2, l, parent, "core.train_p2")
		if err != nil {
			return nil, nil, err
		}
		p1, p2 = append(p1, a), append(p2, b)
	}
	return p1, p2, nil
}

func wallTimes(bs []built) series {
	var s series
	for _, b := range bs {
		s = append(s, b.wallS)
	}
	return s
}

// verify counts the workload's correctness checks against the last pair.
func (w *buildWorkload) verify(p1, p2 []built, r *result) float64 {
	a, b := p1[len(p1)-1].model, p2[len(p2)-1].model
	acc := b.Accuracy(w.hold)
	r.checkAccuracy(acc, w.accFloor-w.sc.accSlack)
	if w.sameModel {
		var ba, bb bytes.Buffer
		errA, errB := a.WriteModel(&ba), b.WriteModel(&bb)
		r.check(errA == nil && errB == nil && bytes.Equal(ba.Bytes(), bb.Bytes()),
			"%v and %v P=%d models differ (%d vs %d bytes; errors %v, %v)",
			w.p1.Algorithm, w.p2.Algorithm, w.p2.Procs, ba.Len(), bb.Len(), errA, errB)
	}
	return acc
}

func (w *buildWorkload) measure(seconds float64, r *result) error {
	if err := w.warmUp(); err != nil {
		return err
	}
	p1, p2, err := w.pairs(seconds, nil, 0)
	if err != nil {
		return err
	}
	r.attempted += len(p1) + len(p2)
	t1, t2 := wallTimes(p1), wallTimes(p2)
	var ms series
	for _, b := range p2 {
		ms = append(ms, b.wallS*1e3)
	}
	// A window holds a handful of calls: the typical call is their median
	// and the tail their upper quartile (a p99 would be the slowest call).
	r.set("op_ms", summarize(ms))
	tail := summarize(ms)
	tail.Value = tail.Q3
	r.set("op_tail_ms", tail)
	// Throughput of the whole mix, so that a slower baseline shows here even
	// though op_ms times the headline config alone.
	rows := float64(w.train.NumRows() * (len(p1) + len(p2)))
	r.set("rows_per_s", scalar(rows/(t1.sum()+t2.sum())))
	r.set("holdout_accuracy", scalar(w.verify(p1, p2, r)))
	return nil
}

func (w *buildWorkload) layers(seconds float64, l *lane, parent int64, r *result) error {
	r.set("synth.generate_s", summarize(w.genS))
	r.set("dataset.split_holdout_s", summarize(w.splitS))

	// The same pairs twice at a third of the window: spans off, then on.
	if err := w.warmUp(); err != nil {
		return err
	}
	plain1, plain2, err := w.pairs(seconds/3, nil, 0)
	if err != nil {
		return err
	}
	p1, p2, err := w.pairs(seconds/3, l, parent)
	if err != nil {
		return err
	}
	r.attempted += len(plain1) + len(plain2) + len(p1) + len(p2)
	w.verify(p1, p2, r)
	r.set("trace.overhead_share", scalar(wallTimes(p2).median()/wallTimes(plain2).median()-1))

	var speedup, setupS, sortS, build1, build2, pruneS series
	var eval, winner, split, barrier, idle, bin, eff, skew series
	for i := range p2 {
		speedup = append(speedup, p1[i].wallS/p2[i].wallS)
		build1 = append(build1, p1[i].model.Timings().Build.Seconds())
		tm, bt := p2[i].model.Timings(), p2[i].model.BuildTrace()
		setupS = append(setupS, tm.Setup.Seconds())
		sortS = append(sortS, tm.Sort.Seconds())
		build2 = append(build2, tm.Build.Seconds())
		pruneS = append(pruneS, p2[i].wallS-tm.Total().Seconds())
		tot := bt.Totals() // worker-seconds, summed over the P workers
		eval, winner, split = append(eval, tot.Eval), append(winner, tot.Winner), append(split, tot.Split)
		barrier, idle, bin = append(barrier, tot.Barrier), append(idle, tot.Idle), append(bin, tot.Bin)
		eff, skew = append(eff, bt.Efficiency()), append(skew, bt.Skew())
	}
	r.set("core.train_p1_s", summarize(wallTimes(p1)))
	r.set("core.speedup_p2", summarize(speedup))
	r.set("alist.setup_s", summarize(setupS))
	r.set("alist.sort_s", summarize(sortS))
	r.set("core.build_s", summarize(build2))
	r.set("core.build_p1_s", summarize(build1))
	r.set("core.idle_s", summarize(idle))
	r.set("core.efficiency", summarize(eff))
	r.set("core.skew", summarize(skew))
	r.set("prune.self_s", summarize(pruneS))
	if w.p2.Algorithm == parclass.Hist {
		r.set("hist.bin_s", summarize(bin))
		r.set("hist.eval_s", summarize(eval))
		r.set("hist.partition_s", summarize(split))
		r.set("hist.barrier_s", summarize(barrier))
	} else {
		r.set("core.eval_s", summarize(eval))
		r.set("core.winner_s", summarize(winner))
		r.set("core.split_s", summarize(split))
		r.set("core.barrier_s", summarize(barrier))
	}

	// Counts from the single-threaded build: they repeat exactly.
	st := p1[0].model.Stats()
	r.set("tree.nodes", scalar(float64(st.Nodes)))
	r.set("tree.levels", scalar(float64(st.Levels)))
	var mallocs, allocs series
	for i := range p1 {
		mallocs = append(mallocs, float64(p1[i].mallocs))
		allocs = append(allocs, float64(p2[i].allocB)/1e6)
	}
	r.set("core.mallocs", summarize(mallocs))
	r.set("core.train_alloc_mb", summarize(allocs))

	for _, g := range w.guards {
		opt := parclass.Options{Algorithm: g.alg, Procs: 2, Prune: true}
		var s series
		for i := 0; i < w.sc.guardRepeats; i++ {
			b, err := timedTrain(w.train, opt, l, parent, g.span)
			if err != nil {
				return err
			}
			r.attempted++
			s = append(s, b.model.Timings().Build.Seconds())
		}
		r.set(g.span+"_s", summarize(s))
	}
	return nil
}

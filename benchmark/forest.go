package main

import (
	"bytes"
	"fmt"
	"runtime"
	"strconv"
	"time"

	parclass "repro"
	"repro/internal/dataset"
	"repro/internal/flat"
)

// forestWorkload trains an 8-tree forest in set-up and scores pre-stringified
// rows through PredictValuesBatch in chunkRows-row calls: the offline scoring
// path, where the flat kernel and the string→value row decode carry the
// result with no HTTP around them.
type forestWorkload struct {
	data parclass.SyntheticConfig
	seed int64
	sc   scale

	all, train, hold *parclass.Dataset
	forest           *parclass.Forest
	rows             [][]string // every row of all, stringified
	chunks           [][][]string
	want             []string // PredictDataset(all): what every chunk must score to

	genS, splitS, trainS, compileS, trainMB series
}

func (w *forestWorkload) options(procs int) parclass.Options {
	return parclass.Options{Algorithm: parclass.Serial, Procs: procs, Trees: 8, ForestSeed: w.seed}
}

func (w *forestWorkload) setup(l *lane, parent int64) error {
	var err error
	w.all, w.train, w.hold, err = generate(w.data, 0.5, l, parent, &w.genS, &w.splitS)
	if err != nil {
		return err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	w.forest, err = parclass.TrainForest(w.train, w.options(2))
	t1 := time.Now()
	if err != nil {
		return fmt.Errorf("TrainForest: %w", err)
	}
	if err := w.forest.Compile(); err != nil {
		return fmt.Errorf("Compile: %w", err)
	}
	t2 := time.Now()
	runtime.ReadMemStats(&after) // Compile's few KB ride along
	w.trainMB = append(w.trainMB, float64(after.TotalAlloc-before.TotalAlloc)/1e6)
	l.add(parent, "sched.forest_train", t0, t1)
	l.add(parent, "flat.compile", t1, t2)
	w.trainS = append(w.trainS, t1.Sub(t0).Seconds())
	w.compileS = append(w.compileS, t2.Sub(t1).Seconds())

	w.rows = stringRows(w.all)
	w.chunks = nil
	for lo := 0; lo+w.sc.chunkRows <= len(w.rows); lo += w.sc.chunkRows {
		w.chunks = append(w.chunks, w.rows[lo:lo+w.sc.chunkRows])
	}
	if len(w.chunks) == 0 {
		return fmt.Errorf("%d rows do not fill one %d-row chunk", len(w.rows), w.sc.chunkRows)
	}
	w.want = w.forest.PredictDataset(w.all)
	return nil
}

func (w *forestWorkload) close() {}

// stringRows renders every row as the positional strings a caller of
// PredictValuesBatch or POST /v1/predict "values_rows" would hold.
func stringRows(ds *parclass.Dataset) [][]string {
	tbl := ds.Table()
	attrs := tbl.Schema().Attrs
	rows := make([][]string, tbl.NumTuples())
	for i := range rows {
		vals := make([]string, len(attrs))
		for a := range attrs {
			if attrs[a].Kind == dataset.Continuous {
				vals[a] = strconv.FormatFloat(tbl.ContValue(a, i), 'g', -1, 64)
			} else {
				vals[a] = attrs[a].Categories[tbl.CatValue(a, i)]
			}
		}
		rows[i] = vals
	}
	return rows
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// score loops PredictValuesBatch over the chunks for the given time, in
// segments, after an untimed pass over every chunk. Every call's labels are
// checked against PredictDataset's.
func (w *forestWorkload) score(seconds float64, l *lane, parent int64, r *result) (*window, error) {
	call := func(i int) (time.Time, time.Time, error) {
		c := i % len(w.chunks)
		t0 := time.Now()
		got, err := w.forest.PredictValuesBatch(w.chunks[c])
		t1 := time.Now()
		if err != nil {
			return t0, t1, fmt.Errorf("PredictValuesBatch: %w", err)
		}
		lo := c * w.sc.chunkRows
		r.check(equalStrings(got, w.want[lo:lo+w.sc.chunkRows]), "chunk %d: PredictValuesBatch and PredictDataset disagree", c)
		return t0, t1, nil
	}
	for i := range w.chunks {
		if _, _, err := call(i); err != nil {
			return nil, err
		}
	}
	runtime.GC()
	win := &window{}
	n := 0
	for s := 0; s < segments; s++ {
		var ms series
		start := time.Now()
		for len(ms) == 0 || time.Since(start).Seconds() < seconds/segments {
			t0, t1, err := call(n)
			if err != nil {
				return nil, err
			}
			n++
			l.add(parent, "parclass.values_batch", t0, t1)
			ms = append(ms, t1.Sub(t0).Seconds()*1e3)
		}
		win.addSegment(ms, len(ms)*w.sc.chunkRows, time.Since(start).Seconds())
	}
	return win, nil
}

func (w *forestWorkload) measure(seconds float64, r *result) error {
	win, err := w.score(seconds, nil, 0, r)
	if err != nil {
		return err
	}
	win.setLatency(r)
	r.set("rows_per_s", summarize(win.rowsPerS))
	acc := w.forest.Accuracy(w.hold)
	r.checkAccuracy(acc, 0.90-w.sc.accSlack)
	r.set("holdout_accuracy", scalar(acc))
	return nil
}

// rate times fn, which processes rows rows, reps times and reports rows/s
// per call.
func rate(reps, rows int, l *lane, parent int64, name string, fn func() error) (series, error) {
	var s series
	for i := 0; i <= reps; i++ {
		t0 := time.Now()
		err := fn()
		t1 := time.Now()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		if i > 0 { // the first call is the warm-up
			l.add(parent, name, t0, t1)
			s = append(s, float64(rows)/t1.Sub(t0).Seconds())
		}
	}
	return s, nil
}

func (w *forestWorkload) layers(seconds float64, l *lane, parent int64, r *result) error {
	r.set("synth.generate_s", summarize(w.genS))
	r.set("dataset.split_holdout_s", summarize(w.splitS))
	r.set("sched.forest_train_s", summarize(w.trainS))
	r.set("flat.compile_s", summarize(w.compileS))
	r.set("sched.forest_train_alloc_mb", summarize(w.trainMB))

	var p1S series
	for i := 0; i < 2; i++ {
		runtime.GC()
		t0 := time.Now()
		if _, err := parclass.TrainForest(w.train, w.options(1)); err != nil {
			return fmt.Errorf("TrainForest P=1: %w", err)
		}
		l.add(parent, "sched.forest_train_p1", t0, time.Now())
		p1S = append(p1S, time.Since(t0).Seconds())
	}
	r.set("sched.forest_train_p1_s", summarize(p1S))
	r.set("sched.forest_speedup_p2", scalar(p1S.median()/w.trainS.median()))

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	plain, err := w.score(seconds/3, nil, 0, r)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	// score's untimed pass over the chunks allocates like the timed calls.
	calls := float64(len(plain.all) + len(w.chunks))
	r.set("parclass.values_batch_alloc_mb", scalar(float64(after.TotalAlloc-before.TotalAlloc)/1e6/calls))
	traced, err := w.score(seconds/3, l, parent, r)
	if err != nil {
		return err
	}
	r.set("trace.overhead_share", scalar(traced.mean.median()/plain.mean.median()-1))

	// The kernels alone, on tuples decoded beforehand.
	tbl := w.all.Table()
	tuples := make([]dataset.Tuple, len(w.rows))
	for i := range tuples {
		tuples[i] = tbl.Row(i)
	}
	out := make([]int32, len(tuples))
	procs := runtime.GOMAXPROCS(0)
	reps := w.sc.stageIters / 20
	ff, err := flat.CompileForest(w.forest.Trees())
	if err != nil {
		return fmt.Errorf("flat.CompileForest: %w", err)
	}
	forestKernel, err := rate(reps, len(tuples), l, parent, "flat.forest_kernel", func() error {
		ff.PredictBatchInto(tuples, out, procs)
		return nil
	})
	if err != nil {
		return err
	}
	single, err := parclass.Train(w.train, parclass.Options{Algorithm: parclass.Serial, Prune: true})
	if err != nil {
		return fmt.Errorf("Train: %w", err)
	}
	ft, err := flat.Compile(single.Tree())
	if err != nil {
		return fmt.Errorf("flat.Compile: %w", err)
	}
	treeKernel, err := rate(reps, len(tuples), l, parent, "flat.tree_kernel", func() error {
		ft.PredictBatchInto(tuples, out, procs)
		return nil
	})
	if err != nil {
		return err
	}
	r.set("flat.forest_kernel_rows_per_s", summarize(forestKernel))
	r.set("flat.tree_kernel_rows_per_s", summarize(treeKernel))

	predictDataset, err := rate(reps, len(w.rows), l, parent, "parclass.predict_dataset", func() error {
		w.forest.PredictDataset(w.all)
		return nil
	})
	if err != nil {
		return err
	}
	r.set("parclass.predict_dataset_rows_per_s", summarize(predictDataset))

	// Either side of the level-sync crossover: 64-row calls, and one call
	// over every chunk.
	whole := w.rows[:len(w.chunks)*w.sc.chunkRows]
	for _, b := range []struct {
		metric string
		rows   [][]string
		reps   int
	}{
		{"parclass.values_batch_rows_per_s_b64", w.rows[:64], 50 * reps},
		{"parclass.values_batch_rows_per_s_b16384", whole, reps},
	} {
		s, err := rate(b.reps, len(b.rows), l, parent, "parclass.values_batch", func() error {
			_, err := w.forest.PredictValuesBatch(b.rows)
			return err
		})
		if err != nil {
			return err
		}
		r.set(b.metric, summarize(s))
	}
	// What the string rows cost over the kernel, per thousand rows.
	r.set("parclass.row_decode_us_per_krow", scalar(1e9/traced.rowsPerS.median()-1e9/forestKernel.median()))

	var buf bytes.Buffer
	var writeS, readS series
	for i := 0; i < 5; i++ {
		buf.Reset()
		t0 := time.Now()
		if err := w.forest.WriteModel(&buf); err != nil {
			return fmt.Errorf("WriteModel: %w", err)
		}
		t1 := time.Now()
		back, err := parclass.ReadModel(bytes.NewReader(buf.Bytes()))
		t2 := time.Now()
		if err != nil {
			return fmt.Errorf("ReadModel: %w", err)
		}
		l.add(parent, "tree.write_model", t0, t1)
		l.add(parent, "tree.read_model", t1, t2)
		writeS, readS = append(writeS, t1.Sub(t0).Seconds()), append(readS, t2.Sub(t1).Seconds())
		if i == 0 {
			r.check(equalStrings(back.PredictDataset(w.hold), w.forest.PredictDataset(w.hold)),
				"the forest read back from WriteModel predicts differently")
		}
	}
	r.set("tree.write_model_s", summarize(writeS))
	r.set("tree.read_model_s", summarize(readS))
	r.set("tree.model_bytes", scalar(float64(buf.Len())))
	return nil
}

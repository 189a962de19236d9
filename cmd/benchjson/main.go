// Command benchjson runs the build-phase observability sweep: it trains
// real trees (no simulation) over the paper's F1/F7 dataset pair for each
// parallel scheme and processor count, and emits one machine-readable JSON
// document with the measured per-phase (E/W/S/barrier/idle) breakdown,
// per-worker busy seconds, skew, parallel efficiency and speedup over the
// serial build. `make bench` runs it and checks the result in as
// BENCH_build.json so phase-balance regressions show up in review diffs.
//
// Usage:
//
//	benchjson -datasets F1-A32-D20K,F7-A32-D20K -procs 1,2,4 -out BENCH_build.json
//
// Comparison mode diffs two such documents run by run and fails on
// regressions (used by `make benchcmp`):
//
//	benchjson -compare old.json new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	parclass "repro"
	"repro/internal/bench"
	"repro/internal/dataset"
	"repro/internal/ingest"
	"repro/internal/loadtest"
	"repro/internal/serve"
	"repro/internal/synth"
)

// run is one (dataset, algorithm, procs) build measurement. Forest rows
// (from -forest-trees) also carry Trees and the fused-vote serve rate.
type run struct {
	Dataset string `json:"dataset"`
	// Algorithm is "forest" for -forest-trees rows.
	Algorithm string `json:"algorithm"`
	Procs     int    `json:"procs"`
	// Trees is the ensemble size of a forest row (omitted for single-tree
	// builds, so pre-forest baselines keep their compare keys).
	Trees        int     `json:"trees,omitempty"`
	BuildSeconds float64 `json:"build_seconds"`
	SetupSeconds float64 `json:"setup_seconds"`
	SortSeconds  float64 `json:"sort_seconds"`
	Nodes        int     `json:"nodes"`
	Levels       int     `json:"levels"`

	// Allocator traffic of the Train call (runtime.MemStats deltas), the
	// quantity the per-worker scratch arenas exist to minimize.
	MallocsDelta    uint64 `json:"mallocs_delta"`
	AllocBytesDelta uint64 `json:"alloc_bytes_delta"`

	PhaseSeconds   map[string]float64 `json:"phase_seconds"`
	WorkerBusySecs []float64          `json:"worker_busy_seconds"`
	Skew           float64            `json:"skew"`
	Efficiency     float64            `json:"efficiency"`
	Speedup        float64            `json:"speedup_vs_serial"`

	// PredictRowsPerSec is the fused batch-vote throughput of a forest row
	// (positional rows through PredictValuesBatch).
	PredictRowsPerSec float64 `json:"predict_rows_per_sec,omitempty"`
}

// driftRun is one drift-recovery measurement (`-drift` mode): the loadtest
// drift driver run against an in-process server with ingest and a periodic
// retrain loop enabled. The accuracy timeline (Points) stays in the report
// so recovery-shape regressions show in review diffs, not just the scalar.
type driftRun struct {
	Dataset         string  `json:"dataset"` // stream spec, e.g. F1toF7-A9-D12K
	WindowCap       int     `json:"window_cap"`
	RetrainInterval float64 `json:"retrain_interval_secs"`
	RetrainMinRows  int     `json:"retrain_min_rows"`
	loadtest.DriftResult
}

// serveRun is one serving-throughput measurement (`-serve` mode): loadgen's
// driver (internal/loadtest) run against an in-process model server.
type serveRun struct {
	Dataset string `json:"dataset"`
	// Mode is "inline", "batched", "batched-overload", or the 25-tree
	// forest row "batched-forest".
	Mode       string `json:"mode"`
	Positional bool   `json:"positional"`
	// Trees is the serving ensemble size (omitted for single-tree rows, so
	// pre-forest baselines keep their compare keys).
	Trees       int     `json:"trees,omitempty"`
	Concurrency int     `json:"concurrency,omitempty"`  // closed loop
	ArrivalRate float64 `json:"arrival_rate,omitempty"` // open loop, req/s
	BatchPerReq int     `json:"batch_per_request"`
	QueueDepth  int     `json:"queue_depth,omitempty"` // in-flight cap (batched modes)
	RowsPerSec  float64 `json:"rows_per_sec"`
	ReqPerSec   float64 `json:"req_per_sec"`
	P50US       int64   `json:"p50_us"`
	P95US       int64   `json:"p95_us"`
	P99US       int64   `json:"p99_us"`
	OK          int64   `json:"ok"`
	Shed        int64   `json:"shed"`
	Errors      int64   `json:"errors"`
	ShedRate    float64 `json:"shed_rate,omitempty"`
}

type report struct {
	Tool      string     `json:"tool"`
	GoOS      string     `json:"goos"`
	GoArch    string     `json:"goarch"`
	NumCPU    int        `json:"num_cpu"`
	Seed      int64      `json:"seed"`
	Warmup    bool       `json:"warmup"`
	Datasets  []string   `json:"datasets"`
	Runs      []run      `json:"runs"`
	ServeRuns []serveRun `json:"serve_runs,omitempty"`
	// DriftRuns are online-learning drift scenarios (`-drift` mode):
	// measured time-to-recover after a mid-stream concept flip, with the
	// retrain-loop counters that produced the recovery.
	DriftRuns []driftRun `json:"drift_runs,omitempty"`
	// ClusterRuns are multi-process kill-and-restart fleet scenarios
	// (`-cluster` mode, see cluster.go): overload survival counters and
	// the restarted node's anti-entropy convergence time.
	ClusterRuns []clusterRun `json:"cluster_runs,omitempty"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchjson: ")
	var (
		datasets = flag.String("datasets", "F1-A32-D20K,F7-A32-D20K,F7-A32-D100K",
			"comma-separated synthetic specs Fx-Ay-DzK")
		procsList = flag.String("procs", "1,2,4", "comma-separated processor counts")
		algs      = flag.String("algorithms", "basic,fwk,mwk,subtree,recpar,hist",
			"comma-separated parallel schemes (serial at P=1 always runs as the baseline)")
		histBig = flag.String("hist-datasets", "F7-A9-D1000K",
			"comma-separated specs measured with hist only (exact engines would take hours at this scale); empty disables")
		seed      = flag.Int64("seed", 1, "synthetic generator seed")
		out       = flag.String("out", "", "write JSON here instead of stdout")
		warmup    = flag.Bool("warmup", true, "run one untimed serial build first to warm the heap")
		repeat    = flag.Int("repeat", 1, "train each cell this many times and keep the fastest (damps scheduler noise on oversubscribed hosts)")
		compare   = flag.Bool("compare", false, "compare two reports (args: old.json new.json) and fail on >10% build-time regressions")
		serveMode = flag.Bool("serve", false,
			"run the serving benchmark instead of the build sweep: loadgen's driver against an in-process server, appending serve_runs to -out")
		forestTrees = flag.String("forest-trees", "",
			"comma-separated forest sizes to measure (build wall clock + fused-vote serve rate per size); empty disables")
		forestSpec = flag.String("forest-dataset", "F7-A32-D20K", "synthetic spec for the -forest-trees sweep")
		serveSpec  = flag.String("serve-dataset", "F7-A32-D20K", "synthetic spec for the -serve model")
		serveDur   = flag.Duration("serve-duration", 5*time.Second, "length of each -serve measurement")
		serveConc  = flag.Int("serve-concurrency", 32, "closed-loop concurrency for -serve")
		serveRows  = flag.Int("serve-batch", 16, "rows per request for -serve")
		driftMode  = flag.Bool("drift", false,
			"measure online drift recovery: serve an F1 model with ingest + a retrain loop, stream an F1→F7 drifting feed, report time-to-recover")
		driftRows     = flag.Int("drift-rows", 12000, "total labeled rows streamed in -drift mode")
		driftAt       = flag.Int("drift-at", 3000, "row offset of the F1→F7 concept flip in -drift mode")
		driftWindow   = flag.Int("drift-window", 4000, "ingest window capacity in -drift mode")
		driftInterval = flag.Duration("drift-interval", 200*time.Millisecond, "retrain loop period in -drift mode")
		clusterMode   = flag.Bool("cluster", false,
			"run the multi-process cluster harness: boot a 3-node parclassd fleet, kill and restart a node under 2x open-loop overload, measure anti-entropy convergence (see -parclassd)")
		clusterBin = flag.String("parclassd", "bin/parclassd",
			"prebuilt parclassd binary for -cluster (`make clusterbench` builds it)")
		clusterDur = flag.Duration("cluster-duration", 8*time.Second,
			"length of the -cluster overload run spanning the kill/publish/restart scenario")
		clusterArrival = flag.Float64("cluster-arrival", 0,
			"open-loop arrival rate for -cluster in req/s (0 = 2x the measured closed-loop fleet capacity)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
		memprofile = flag.String("memprofile", "", "write an allocation profile of the sweep to this file")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			log.Fatal("-compare needs exactly two arguments: old.json new.json")
		}
		if err := compareReports(flag.Arg(0), flag.Arg(1)); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *serveMode {
		if err := serveBench(*out, *serveSpec, *seed, *serveDur, *serveConc, *serveRows); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *driftMode {
		if err := driftBench(*out, *seed, *driftRows, *driftAt, *driftWindow, *driftInterval); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *clusterMode {
		if err := clusterBench(*out, *clusterBin, *seed, *clusterArrival, *clusterDur); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	procs, err := parseInts(*procsList)
	if err != nil {
		log.Fatal(err)
	}
	rep := report{
		Tool:   "benchjson",
		GoOS:   runtime.GOOS,
		GoArch: runtime.GOARCH,
		NumCPU: runtime.NumCPU(),
		Seed:   *seed,
		Warmup: *warmup,
	}

	for _, spec := range splitList(*datasets) {
		rep.Datasets = append(rep.Datasets, spec)
		ds, err := loadDataset(spec, *seed)
		if err != nil {
			log.Fatal(err)
		}
		if *warmup {
			if _, err := parclass.Train(ds, parclass.Options{Algorithm: parclass.Serial}); err != nil {
				log.Fatalf("%s warmup: %v", spec, err)
			}
		}
		serial, err := measureBest(ds, spec, parclass.Serial, 1, 0, *repeat)
		if err != nil {
			log.Fatal(err)
		}
		rep.Runs = append(rep.Runs, serial)
		log.Printf("%-14s serial  P=1 build=%.3fs", spec, serial.BuildSeconds)
		for _, name := range splitList(*algs) {
			alg, err := parseAlg(name)
			if err != nil {
				log.Fatal(err)
			}
			for _, p := range procs {
				r, err := measureBest(ds, spec, alg, p, serial.BuildSeconds, *repeat)
				if err != nil {
					log.Fatal(err)
				}
				rep.Runs = append(rep.Runs, r)
				log.Printf("%-14s %-7s P=%d build=%.3fs speedup=%.2f skew=%.2f eff=%.0f%%",
					spec, name, p, r.BuildSeconds, r.Speedup, r.Skew, 100*r.Efficiency)
			}
		}
	}

	// Hist-only big datasets: the approximate engine's reason to exist is
	// row counts where the exact engines' sort becomes the build. No serial
	// baseline is run (it would dominate the sweep's wall clock), so these
	// rows carry no speedup and compare only against their own history.
	for _, spec := range splitList(*histBig) {
		ds, err := loadDataset(spec, *seed)
		if err != nil {
			log.Fatal(err)
		}
		for _, p := range procs {
			r, err := measureBest(ds, spec, parclass.Hist, p, 0, *repeat)
			if err != nil {
				log.Fatal(err)
			}
			rep.Runs = append(rep.Runs, r)
			log.Printf("%-14s %-7s P=%d build=%.3fs skew=%.2f eff=%.0f%%",
				spec, "hist", p, r.BuildSeconds, r.Skew, 100*r.Efficiency)
		}
	}

	// Forest rows: ensemble build wall clock plus the fused batch-vote
	// serve rate, one row per tree count.
	if sizes, err := parseInts(*forestTrees); err == nil && len(sizes) > 0 {
		ds, err := loadDataset(*forestSpec, *seed)
		if err != nil {
			log.Fatal(err)
		}
		for _, n := range sizes {
			r, err := measureForest(ds, *forestSpec, n, *seed)
			if err != nil {
				log.Fatal(err)
			}
			rep.Runs = append(rep.Runs, r)
			log.Printf("%-14s forest  T=%-3d build=%.3fs predict=%s rows/s",
				*forestSpec, n, r.BuildSeconds, fmtServeRate(r.PredictRowsPerSec))
		}
	} else if err != nil && *forestTrees != "" {
		log.Fatal(err)
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			log.Fatal(err)
		}
		runtime.GC() // materialize the final allocation profile
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			log.Fatal(err)
		}
		f.Close()
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	buf = append(buf, '\n')
	if *out == "" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s (%d runs)", *out, len(rep.Runs))
}

// measureBest runs measure n times and keeps the fastest build. On a host
// with fewer cores than workers a single run's wall clock is hostage to the
// scheduler; the minimum is the stable statistic.
func measureBest(ds *parclass.Dataset, spec string, alg parclass.Algorithm, procs int, serialBuild float64, n int) (run, error) {
	best, err := measure(ds, spec, alg, procs, serialBuild)
	if err != nil {
		return run{}, err
	}
	for i := 1; i < n; i++ {
		r, err := measure(ds, spec, alg, procs, serialBuild)
		if err != nil {
			return run{}, err
		}
		if r.BuildSeconds < best.BuildSeconds {
			best = r
		}
	}
	return best, nil
}

// measure trains once and folds the model's BuildTrace into a run record.
func measure(ds *parclass.Dataset, spec string, alg parclass.Algorithm, procs int, serialBuild float64) (run, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, err := parclass.Train(ds, parclass.Options{Algorithm: alg, Procs: procs})
	runtime.ReadMemStats(&after)
	if err != nil {
		return run{}, fmt.Errorf("%s/%s/P=%d: %w", spec, alg, procs, err)
	}
	tm := m.Timings()
	st := m.Stats()
	r := run{
		Dataset:      spec,
		Algorithm:    strings.ToLower(alg.String()),
		Procs:        procs,
		BuildSeconds: tm.Build.Seconds(),
		SetupSeconds: tm.Setup.Seconds(),
		SortSeconds:  tm.Sort.Seconds(),
		Nodes:        st.Nodes,
		Levels:       st.Levels,

		MallocsDelta:    after.Mallocs - before.Mallocs,
		AllocBytesDelta: after.TotalAlloc - before.TotalAlloc,
	}
	if serialBuild > 0 && r.BuildSeconds > 0 {
		r.Speedup = serialBuild / r.BuildSeconds
	}
	bt := m.BuildTrace()
	if bt == nil {
		return r, nil
	}
	tot := bt.Totals()
	r.PhaseSeconds = map[string]float64{
		"eval":    tot.Eval,
		"winner":  tot.Winner,
		"split":   tot.Split,
		"barrier": tot.Barrier,
		"idle":    tot.Idle,
		"bin":     tot.Bin,
	}
	for _, wt := range bt.WorkerTotals() {
		r.WorkerBusySecs = append(r.WorkerBusySecs, wt.Busy())
	}
	r.Skew = bt.Skew()
	r.Efficiency = bt.Efficiency()
	return r, nil
}

// measureForest trains an n-tree forest and measures the fused batch-vote
// serve rate: positional string rows through Forest.PredictValuesBatch,
// the same path the server's "values_rows" form calls.
func measureForest(ds *parclass.Dataset, spec string, n int, seed int64) (run, error) {
	start := time.Now()
	f, err := parclass.TrainForest(ds, parclass.Options{
		Trees: n, ForestSeed: seed, FeatureFrac: 0.7,
	})
	if err != nil {
		return run{}, fmt.Errorf("%s/forest/T=%d: %w", spec, n, err)
	}
	wall := time.Since(start).Seconds()
	if err := f.Compile(); err != nil {
		return run{}, err
	}
	st := f.Stats()
	r := run{
		Dataset:      spec,
		Algorithm:    "forest",
		Procs:        1,
		Trees:        n,
		BuildSeconds: wall,
		Nodes:        st.Nodes,
		Levels:       st.Levels,
	}

	rows := positionalRows(ds, 4096)
	// Warm once, then time whole batches until ~400ms has elapsed; the
	// ratio is stable well before that on every ensemble size.
	if _, err := f.PredictValuesBatch(rows); err != nil {
		return run{}, err
	}
	var done int
	bench := time.Now()
	for time.Since(bench) < 400*time.Millisecond {
		if _, err := f.PredictValuesBatch(rows); err != nil {
			return run{}, err
		}
		done += len(rows)
	}
	r.PredictRowsPerSec = float64(done) / time.Since(bench).Seconds()
	return r, nil
}

// positionalRows re-encodes the first n tuples as positional string rows
// in schema attribute order — the PredictValuesBatch wire form.
func positionalRows(ds *parclass.Dataset, n int) [][]string {
	tbl := ds.Table()
	s := tbl.Schema()
	if n > tbl.NumTuples() {
		n = tbl.NumTuples()
	}
	rows := make([][]string, n)
	for i := range rows {
		tu := tbl.Row(i)
		vals := make([]string, len(s.Attrs))
		for a := range s.Attrs {
			if s.Attrs[a].Kind == dataset.Continuous {
				vals[a] = strconv.FormatFloat(tu.Cont[a], 'g', -1, 64)
			} else {
				vals[a] = s.Attrs[a].Categories[tu.Cat[a]]
			}
		}
		rows[i] = vals
	}
	return rows
}

// compareReports diffs two benchjson documents run by run (matched on
// dataset, algorithm and processor count), prints per-run build-time ratios
// and allocation deltas, and returns an error when any matched run regressed
// by more than 10% — so `make benchcmp` fails the build on a perf loss.
// Serve rows are diffed too (matched on dataset, mode, batch size and the
// forest column when present — an absent column adds nothing to the key, so
// rows written before it existed still match), but only
// informationally: serving throughput on a shared host is too noisy to gate.
func compareReports(oldPath, newPath string) error {
	loadReport := func(path string) (*report, error) {
		buf, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var rep report
		if err := json.Unmarshal(buf, &rep); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &rep, nil
	}
	oldRep, err := loadReport(oldPath)
	if err != nil {
		return err
	}
	newRep, err := loadReport(newPath)
	if err != nil {
		return err
	}
	index := func(rep *report) (map[string]run, []string) {
		m := make(map[string]run, len(rep.Runs))
		var order []string
		for _, r := range rep.Runs {
			key := fmt.Sprintf("%s/%s/P=%d", r.Dataset, r.Algorithm, r.Procs)
			// Forest rows get their own key space; single-tree keys are
			// unchanged so old baselines still match ("(no baseline)" for
			// forest rows against a pre-forest file is expected).
			if r.Trees > 0 {
				key += fmt.Sprintf("/T=%d", r.Trees)
			}
			m[key] = r
			order = append(order, key)
		}
		return m, order
	}
	oldRuns, _ := index(oldRep)
	newRuns, order := index(newRep)

	const regressionTolerance = 1.10
	fmt.Printf("%-32s %10s %10s %8s %12s\n", "run", "old(s)", "new(s)", "ratio", "mallocs")
	var regressions []string
	matched := 0
	for _, key := range order {
		nr := newRuns[key]
		or, ok := oldRuns[key]
		if !ok {
			fmt.Printf("%-32s %10s %10.3f %8s %12d  (no baseline)\n",
				key, "-", nr.BuildSeconds, "-", nr.MallocsDelta)
			continue
		}
		matched++
		ratio := or.BuildSeconds / nr.BuildSeconds
		mark := ""
		if nr.BuildSeconds > or.BuildSeconds*regressionTolerance {
			mark = "  REGRESSION"
			regressions = append(regressions, key)
		}
		fmt.Printf("%-32s %10.3f %10.3f %7.2fx %12d%s\n",
			key, or.BuildSeconds, nr.BuildSeconds, ratio, nr.MallocsDelta, mark)
	}
	if matched == 0 {
		return fmt.Errorf("no runs of %s match any run of %s", newPath, oldPath)
	}
	compareServeRuns(oldRep, newRep)
	compareClusterRuns(oldRep, newRep)
	if len(regressions) > 0 {
		return fmt.Errorf("%d run(s) regressed by more than %.0f%%: %s",
			len(regressions), (regressionTolerance-1)*100, strings.Join(regressions, ", "))
	}
	fmt.Printf("%d runs compared, no regression above %.0f%%\n", matched, (regressionTolerance-1)*100)
	return nil
}

// serveKey identifies a serve row across reports. The optional Trees
// column extends the key only when set, so rows from files written before
// it existed keep matching instead of all showing up as "(no baseline)".
func serveKey(r serveRun) string {
	key := fmt.Sprintf("serve/%s/%s/B=%d", r.Dataset, r.Mode, r.BatchPerReq)
	if r.Trees > 0 {
		key += fmt.Sprintf("/T=%d", r.Trees)
	}
	return key
}

// compareServeRuns prints the serving-row diff: rows/s old vs new for every
// config present in both files. Informational only — closed-loop serving
// throughput on a shared 1-vCPU host swings far more than the 10% build
// gate, so a serve delta never fails the comparison.
func compareServeRuns(oldRep, newRep *report) {
	if len(newRep.ServeRuns) == 0 {
		return
	}
	oldServe := make(map[string]serveRun, len(oldRep.ServeRuns))
	for _, r := range oldRep.ServeRuns {
		oldServe[serveKey(r)] = r
	}
	fmt.Printf("\n%-52s %12s %12s %8s\n", "serve run (informational)", "old rows/s", "new rows/s", "ratio")
	for _, nr := range newRep.ServeRuns {
		key := serveKey(nr)
		or, ok := oldServe[key]
		if !ok {
			fmt.Printf("%-52s %12s %12.0f %8s  (no baseline)\n", key, "-", nr.RowsPerSec, "-")
			continue
		}
		ratio := 0.0
		if or.RowsPerSec > 0 {
			ratio = nr.RowsPerSec / or.RowsPerSec
		}
		fmt.Printf("%-52s %12.0f %12.0f %7.2fx\n", key, or.RowsPerSec, nr.RowsPerSec, ratio)
	}
	fmt.Println()
}

// compareClusterRuns prints the cluster-row diff informationally — a
// 3-node kill/restart scenario on a shared host is even noisier than the
// serve rows, so it never gates. A row with no baseline (the normal case
// when a cluster row first lands, or against any pre-cluster file)
// prints as "(no baseline)" instead of failing the comparison.
func compareClusterRuns(oldRep, newRep *report) {
	if len(newRep.ClusterRuns) == 0 {
		return
	}
	key := func(r clusterRun) string {
		return fmt.Sprintf("cluster/%s/N=%d", r.Dataset, r.Nodes)
	}
	oldRuns := make(map[string]clusterRun, len(oldRep.ClusterRuns))
	for _, r := range oldRep.ClusterRuns {
		oldRuns[key(r)] = r
	}
	fmt.Printf("%-40s %12s %12s\n", "cluster run (informational)", "old conv(s)", "new conv(s)")
	for _, nr := range newRep.ClusterRuns {
		k := key(nr)
		or, ok := oldRuns[k]
		if !ok {
			fmt.Printf("%-40s %12s %12.2f  (no baseline)\n", k, "-", nr.ConvergeSecs)
			continue
		}
		fmt.Printf("%-40s %12.2f %12.2f\n", k, or.ConvergeSecs, nr.ConvergeSecs)
	}
	fmt.Println()
}

// serveBench is `-serve` mode: it trains one model over spec, serves it
// in-process (httptest, so no port or separate process), and drives it with
// internal/loadtest — the same engine as cmd/loadgen — in three
// configurations: inline (admission control off), batched (admission
// control on: the in-flight cap of EnableBatching; the server no longer
// coalesces requests, so the mode keeps its old name only), and
// batched-overload (open loop driven past the batched capacity, so the
// cap's shedding is measurable). The rows append to the report at outPath
// as "serve_runs", next to the build sweep.
func serveBench(outPath, spec string, seed int64, dur time.Duration, conc, batch int) error {
	ds, err := loadDataset(spec, seed)
	if err != nil {
		return err
	}
	model, err := parclass.Train(ds, parclass.Options{Algorithm: parclass.MWK, Procs: runtime.NumCPU()})
	if err != nil {
		return fmt.Errorf("training %s: %w", spec, err)
	}

	runOne := func(mode string, m parclass.Predictor, batchRows int, bcfg *serve.BatchConfig, arrival float64) (serveRun, error) {
		s := serve.New(serve.DefaultModelName)
		if _, err := s.Load(serve.DefaultModelName, m, "benchjson -serve "+spec); err != nil {
			return serveRun{}, err
		}
		queueDepth := 0
		if bcfg != nil {
			if err := s.EnableBatching(*bcfg); err != nil {
				return serveRun{}, err
			}
			if queueDepth = bcfg.QueueDepth; queueDepth == 0 {
				queueDepth = serve.DefaultBatchQueueDepth
			}
		}
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		defer s.Close()

		cfg := loadtest.Config{
			BaseURL:    ts.URL,
			Positional: true,
			Batch:      batchRows,
			Duration:   dur,
			Seed:       seed,
		}
		if arrival > 0 {
			cfg.ArrivalRate = arrival
		} else {
			cfg.Concurrency = conc
		}
		res, err := loadtest.Run(cfg)
		if err != nil {
			return serveRun{}, err
		}
		if res.OK == 0 {
			return serveRun{}, fmt.Errorf("%s: no successful requests (%d shed, %d errors)", mode, res.Shed, res.Errors)
		}
		sr := serveRun{
			Dataset:     spec,
			Mode:        mode,
			Positional:  true,
			Concurrency: cfg.Concurrency,
			ArrivalRate: arrival,
			BatchPerReq: batchRows,
			QueueDepth:  queueDepth,
			RowsPerSec:  res.RowsPerSec(),
			ReqPerSec:   res.ReqPerSec(),
			P50US:       res.Pct(50).Microseconds(),
			P95US:       res.Pct(95).Microseconds(),
			P99US:       res.Pct(99).Microseconds(),
			OK:          res.OK,
			Shed:        res.Shed,
			Errors:      res.Errors,
			ShedRate:    res.ShedRate(),
		}
		if nt := m.NumTrees(); nt > 1 {
			sr.Trees = nt
		}
		return sr, nil
	}

	var runs []serveRun
	inline, err := runOne("inline", model, batch, nil, 0)
	if err != nil {
		return err
	}
	runs = append(runs, inline)
	log.Printf("%-17s %s rows/s (%s req/s) p99=%v", "inline", fmtServeRate(inline.RowsPerSec),
		fmtServeRate(inline.ReqPerSec), time.Duration(inline.P99US)*time.Microsecond)

	batchedRun, err := runOne("batched", model, batch, &serve.BatchConfig{}, 0)
	if err != nil {
		return err
	}
	runs = append(runs, batchedRun)
	log.Printf("%-17s %s rows/s (%s req/s) p99=%v", "batched", fmtServeRate(batchedRun.RowsPerSec),
		fmtServeRate(batchedRun.ReqPerSec), time.Duration(batchedRun.P99US)*time.Microsecond)

	// Overload: open loop at twice the measured batched capacity. The point
	// is not throughput but the shed rate: whether the backlog cap turns the
	// excess into 429s. Inline handlers rarely pile up in flight, so this
	// row is what shows the cap's estimate of predicts waiting for a CPU at
	// work. The cap is kept small (16) so it is the first limit the traffic
	// can reach, and a row that sheds nothing fails the run.
	overloadRate := 2 * batchedRun.ReqPerSec
	if overloadRate < 100 {
		overloadRate = 100
	}
	overload, err := runOne("batched-overload", model, batch, &serve.BatchConfig{QueueDepth: 16}, overloadRate)
	if err != nil {
		return err
	}
	runs = append(runs, overload)
	log.Printf("%-17s %s rows/s ok, %.1f%% shed at %.0f req/s offered", "batched-overload",
		fmtServeRate(overload.RowsPerSec), 100*overload.ShedRate, overloadRate)
	if overload.Shed == 0 {
		return fmt.Errorf("batched-overload: admission control shed nothing at %.0f req/s offered (p50 %v), so the backlog is unbounded",
			overloadRate, time.Duration(overload.P50US)*time.Microsecond)
	}

	// A 25-member forest through the full serve stack, 256 rows per
	// request.
	forest, err := parclass.TrainForest(ds, parclass.Options{Trees: 25, ForestSeed: seed})
	if err != nil {
		return fmt.Errorf("training %s forest: %w", spec, err)
	}
	forestRun, err := runOne("batched-forest", forest, 256, &serve.BatchConfig{}, 0)
	if err != nil {
		return err
	}
	runs = append(runs, forestRun)
	log.Printf("%-17s %s rows/s (%s req/s) p99=%v", "batched-forest", fmtServeRate(forestRun.RowsPerSec),
		fmtServeRate(forestRun.ReqPerSec), time.Duration(forestRun.P99US)*time.Microsecond)

	// Append to the existing report so the serving rows live beside the
	// build sweep in one document; start a fresh one if outPath is new.
	rep, err := loadOrInitReport(outPath, seed)
	if err != nil {
		return err
	}
	rep.ServeRuns = runs
	return writeReport(outPath, rep, fmt.Sprintf("%d serve runs", len(runs)))
}

// driftBench is `-drift` mode: it trains an F1 model, serves it in-process
// with ingest and a periodic HIST retrain loop enabled, streams a labeled
// feed whose concept flips F1→F7 at driftAt, and measures how many rows
// (and how much wall time) the accuracy-tripwire retrain loop needs to
// recover to within 0.02 of pre-drift accuracy. The row appends to the
// report at outPath as "drift_runs", next to the build and serve sweeps.
func driftBench(outPath string, seed int64, rows, driftAt, windowCap int, interval time.Duration) error {
	base, err := parclass.Synthetic(parclass.SyntheticConfig{
		Function: 1, Attrs: 9, Tuples: 4000, Seed: seed,
	})
	if err != nil {
		return err
	}
	model, err := parclass.Train(base, parclass.Options{Algorithm: parclass.Hist})
	if err != nil {
		return fmt.Errorf("training drift seed model: %w", err)
	}

	s := serve.New(serve.DefaultModelName)
	if _, err := s.Load(serve.DefaultModelName, model, "benchjson -drift seed model (F1)"); err != nil {
		return err
	}
	if err := s.EnableBatching(serve.BatchConfig{}); err != nil {
		return err
	}
	if err := s.EnableIngest(serve.IngestConfig{WindowCap: windowCap}); err != nil {
		return err
	}
	minRows := 1000
	stop := s.StartRetrainLoop(serve.DefaultModelName, interval, ingest.RetrainConfig{MinRows: minRows})
	defer stop()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	scfg := synth.Config{
		Function: 1, DriftFunction: 7, DriftAt: driftAt,
		Attrs: 9, Tuples: rows, Seed: seed + 100,
	}
	// Pace at interval/4 so several ingest batches land per retrain cycle;
	// an unpaced run finishes before the first tick.
	res, err := loadtest.RunDrift(loadtest.DriftConfig{
		BaseURL: ts.URL,
		Synth:   scfg,
		Pace:    interval / 4,
	})
	if err != nil {
		return err
	}
	dr := driftRun{
		Dataset:         scfg.Name(),
		WindowCap:       windowCap,
		RetrainInterval: interval.Seconds(),
		RetrainMinRows:  minRows,
		DriftResult:     *res,
	}
	if dr.RecoveredAtRow >= 0 {
		log.Printf("drift %s: pre-drift %.4f, crater %.4f, recovered %.1fs / %d rows after flip (%d retrains, %d swaps, %d rejects)",
			dr.Dataset, dr.PreDriftAcc, dr.MinPostAcc, dr.RecoverySecs,
			dr.RecoveredAtRow-driftAt, dr.Retrains, dr.Swaps, dr.Rejects)
	} else {
		log.Printf("drift %s: pre-drift %.4f, crater %.4f, NOT recovered in %d rows (%d retrains, %d swaps, %d rejects)",
			dr.Dataset, dr.PreDriftAcc, dr.MinPostAcc, rows-driftAt,
			dr.Retrains, dr.Swaps, dr.Rejects)
	}

	rep, err := loadOrInitReport(outPath, seed)
	if err != nil {
		return err
	}
	rep.DriftRuns = []driftRun{dr}
	return writeReport(outPath, rep, "1 drift run")
}

// loadOrInitReport reads the report at path when one exists, or starts a
// fresh document stamped with the host facts, so every append-mode
// section (-serve, -drift, -cluster) shares one merge policy.
func loadOrInitReport(path string, seed int64) (*report, error) {
	var rep report
	if path != "" {
		if buf, err := os.ReadFile(path); err == nil {
			if err := json.Unmarshal(buf, &rep); err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
		}
	}
	if rep.Tool == "" {
		rep = report{
			Tool: "benchjson", GoOS: runtime.GOOS, GoArch: runtime.GOARCH,
			NumCPU: runtime.NumCPU(), Seed: seed,
		}
	}
	return &rep, nil
}

// writeReport marshals rep to path (stdout when path is empty).
func writeReport(path string, rep *report, what string) error {
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if path == "" {
		os.Stdout.Write(buf)
		return nil
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return err
	}
	log.Printf("wrote %s (%s)", path, what)
	return nil
}

// decodeBody decodes one JSON document from r.
func decodeBody(r io.Reader, out any) error {
	return json.NewDecoder(r).Decode(out)
}

func fmtServeRate(v float64) string {
	switch {
	case v >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fk", v/1e3)
	default:
		return fmt.Sprintf("%.1f", v)
	}
}

func loadDataset(spec string, seed int64) (*parclass.Dataset, error) {
	d, err := bench.ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	return parclass.Synthetic(parclass.SyntheticConfig{
		Function: d.Function, Attrs: d.Attrs, Tuples: d.Tuples, Seed: seed,
	})
}

func parseAlg(name string) (parclass.Algorithm, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "serial":
		return parclass.Serial, nil
	case "basic":
		return parclass.Basic, nil
	case "fwk":
		return parclass.FWK, nil
	case "mwk":
		return parclass.MWK, nil
	case "subtree":
		return parclass.Subtree, nil
	case "recpar":
		return parclass.RecordParallel, nil
	case "hist":
		return parclass.Hist, nil
	default:
		return 0, fmt.Errorf("unknown algorithm %q", name)
	}
}

func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, f := range splitList(s) {
		n, err := strconv.Atoi(f)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad processor count %q", f)
		}
		out = append(out, n)
	}
	return out, nil
}

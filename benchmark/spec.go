package main

// The benchmark's catalogue: workloads, end-to-end metrics with their
// regression bounds, and per-layer metrics. BENCHMARK.json at the repo root
// carries the same tables for the driver; smoke_test.go keeps the two equal.
// README.md explains each entry.

// benchmarkSpec is BENCHMARK.json; `-spec` prints it from the tables below.
type benchmarkSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []layerSpec    `json:"per_layer"`
}

// layerSpec is a metricSpec without the bound.
type layerSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func spec() benchmarkSpec {
	s := benchmarkSpec{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: 15,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
	}
	for _, m := range perLayer {
		s.PerLayer = append(s.PerLayer, layerSpec{m.Name, m.Unit, m.Better})
	}
	return s
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median
}

var workloads = []workloadSpec{
	{"build_exact_f7", "Paper headline: Serial vs MWK P=2 Train on F7-A32-D100K; core E/W/S and alist sort do the work, hist/flat/serve none"},
	{"build_hist_1m", "Same Train entry on F7-A9-D1000K with Hist P=1 vs P=2: no sort, no attribute lists; hist binning and accumulation dominate"},
	{"forest_score", "8-tree forest on F7-A32-D20K scored offline in 4096-row PredictValuesBatch calls: flat kernel plus row decode, no HTTP"},
	{"serve_bulk", "Closed loop, 2 connections, 64-row values_rows predicts against parclassd defaults: JSON and string-to-float decode dominate"},
	{"serve_online_mix", "Open loop: 250/s single-row predicts beside 100/s 32-row ingests on one server; batcher wait and per-request overhead dominate"},
}

// Every workload emits every end-to-end metric; what the headline operation
// is on each workload is in README.md.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"op_ms", "ms", "lower", 0.15},
	{"op_tail_ms", "ms", "lower", 0.25},
	{"rows_per_s", "1/s", "higher", 0.15},
	{"holdout_accuracy", "fraction", "higher", 0.01},
}

// Per-layer metrics come from the traced run. A workload reports 0 for a
// layer it does not exercise.
var perLayer = []metricSpec{
	// set-up layers (every workload)
	{Name: "synth.generate_s", Unit: "s", Better: "lower"},
	{Name: "dataset.split_holdout_s", Unit: "s", Better: "lower"},
	// build_exact_f7, build_hist_1m
	{Name: "core.train_p1_s", Unit: "s", Better: "lower"},
	{Name: "core.speedup_p2", Unit: "ratio", Better: "higher"},
	{Name: "alist.setup_s", Unit: "s", Better: "lower"},
	{Name: "alist.sort_s", Unit: "s", Better: "lower"},
	{Name: "core.build_s", Unit: "s", Better: "lower"},
	{Name: "core.build_p1_s", Unit: "s", Better: "lower"},
	{Name: "core.eval_s", Unit: "s", Better: "lower"},
	{Name: "core.winner_s", Unit: "s", Better: "lower"},
	{Name: "core.split_s", Unit: "s", Better: "lower"},
	{Name: "core.barrier_s", Unit: "s", Better: "lower"},
	{Name: "core.idle_s", Unit: "s", Better: "lower"},
	{Name: "core.efficiency", Unit: "fraction", Better: "higher"},
	{Name: "core.skew", Unit: "ratio", Better: "lower"},
	{Name: "core.basic.build_s", Unit: "s", Better: "lower"},
	{Name: "core.fwk.build_s", Unit: "s", Better: "lower"},
	{Name: "core.subtree.build_s", Unit: "s", Better: "lower"},
	{Name: "core.recpar.build_s", Unit: "s", Better: "lower"},
	{Name: "hist.bin_s", Unit: "s", Better: "lower"},
	{Name: "hist.eval_s", Unit: "s", Better: "lower"},
	{Name: "hist.partition_s", Unit: "s", Better: "lower"},
	{Name: "hist.barrier_s", Unit: "s", Better: "lower"},
	{Name: "prune.self_s", Unit: "s", Better: "lower"},
	{Name: "tree.nodes", Unit: "count", Better: "lower"},
	{Name: "tree.levels", Unit: "count", Better: "lower"},
	{Name: "core.mallocs", Unit: "count", Better: "lower"},
	{Name: "core.train_alloc_mb", Unit: "MB", Better: "lower"},
	// forest_score
	{Name: "sched.forest_train_s", Unit: "s", Better: "lower"},
	{Name: "sched.forest_train_p1_s", Unit: "s", Better: "lower"},
	{Name: "sched.forest_speedup_p2", Unit: "ratio", Better: "higher"},
	{Name: "sched.forest_train_alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "flat.compile_s", Unit: "s", Better: "lower"},
	{Name: "flat.tree_kernel_rows_per_s", Unit: "1/s", Better: "higher"},
	{Name: "flat.forest_kernel_rows_per_s", Unit: "1/s", Better: "higher"},
	{Name: "parclass.predict_dataset_rows_per_s", Unit: "1/s", Better: "higher"},
	{Name: "parclass.values_batch_rows_per_s_b64", Unit: "1/s", Better: "higher"},
	{Name: "parclass.values_batch_rows_per_s_b16384", Unit: "1/s", Better: "higher"},
	{Name: "parclass.row_decode_us_per_krow", Unit: "us", Better: "lower"},
	{Name: "parclass.values_batch_alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "tree.write_model_s", Unit: "s", Better: "lower"},
	{Name: "tree.read_model_s", Unit: "s", Better: "lower"},
	{Name: "tree.model_bytes", Unit: "count", Better: "lower"},
	// serve_bulk, serve_online_mix
	{Name: "parclass.train_s", Unit: "s", Better: "lower"},
	{Name: "serve.body_bytes", Unit: "count", Better: "lower"},
	{Name: "serve.json_decode_us", Unit: "us", Better: "lower"},
	{Name: "parclass.values_batch_us", Unit: "us", Better: "lower"},
	{Name: "flat.kernel_us", Unit: "us", Better: "lower"},
	{Name: "serve.json_encode_us", Unit: "us", Better: "lower"},
	{Name: "serve.handler_inline_us", Unit: "us", Better: "lower"},
	{Name: "serve.handler_us", Unit: "us", Better: "lower"},
	{Name: "serve.handler_other_us", Unit: "us", Better: "lower"},
	{Name: "serve.batcher_wait_us", Unit: "us", Better: "lower"},
	{Name: "nethttp.wire_us", Unit: "us", Better: "lower"},
	{Name: "serve.alloc_bytes_per_req", Unit: "count", Better: "lower"},
	{Name: "serve.mallocs_per_req", Unit: "count", Better: "lower"},
	{Name: "serve.dispatch_rows_mean", Unit: "count", Better: "higher"},
	{Name: "serve.shed", Unit: "count", Better: "lower"},
	{Name: "serve.predict_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.predict_p999_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.ingest_handler_us", Unit: "us", Better: "lower"},
	{Name: "serve.ingest_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.ingest_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "ingest.retrain_s", Unit: "s", Better: "lower"},
	{Name: "loadgen.late_p99_us", Unit: "us", Better: "lower"},
	// every workload
	{Name: "trace.overhead_share", Unit: "fraction", Better: "lower"},
}

// Command benchmark is the repo's one benchmark: five workloads from Train
// to the wire, end-to-end metrics with regression bounds, and a traced run
// that times calls into each layer from outside the program. README.md is
// the catalogue; BENCHMARK.json is the driver's copy of it.
//
//	bash benchmark/run.sh --workload serve_bulk --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh -compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// result collects what one run reports.
type result struct {
	metrics   map[string]value
	attempted int
	failed    int
}

// set stores a metric under a name from spec.go.
func (r *result) set(name string, v value) { r.metrics[name] = v }

// check counts one correctness check as an attempted operation, failed when
// ok is false.
func (r *result) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		fmt.Fprintf(os.Stderr, "FAILED: "+format+"\n", args...)
	}
}

func (r *result) checkAccuracy(acc, floor float64) {
	r.check(acc >= floor, "holdout accuracy %.4f is under the floor %.2f", acc, floor)
}

// workload is one entry of spec.go's workloads table.
type workload interface {
	// setup makes the inputs from the seed and everything the window needs
	// (data, models, server, request bodies). It is called several times;
	// each call replaces the previous fixture.
	setup(l *lane, parent int64) error
	// measure runs the untraced window and sets the end-to-end metrics.
	measure(seconds float64, r *result) error
	// layers runs the traced series and sets the per-layer metrics.
	layers(seconds float64, l *lane, parent int64, r *result) error
	// close stops whatever setup started.
	close()
}

// header identifies the run; it is written with every record.
type header struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      int     `json:"trace"`
	Scale      string  `json:"scale"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	// Unresolved is set on a host with fewer than 2 processors: the P=2
	// builds and the 2-connection loads then time-share one core, and their
	// numbers must not be compared.
	Unresolved bool `json:"unresolved,omitempty"`
}

// record is one line of a -record file: what -compare reads.
type record struct {
	header
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func main() {
	var (
		name     = flag.String("workload", "", "workload to run (see README.md)")
		seed     = flag.Int64("seed", 1, "seed for every generated input")
		seconds  = flag.Float64("seconds", 10, "length of the measured window")
		traced   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics, spans written to <out>/trace.json")
		scale    = flag.String("scale", "full", "full | tiny (smoke test sizes)")
		outDir   = flag.String("out", "benchmark/out", "directory for trace.json")
		recordTo = flag.String("record", "", "append this run as one JSON line to the named file (input of -compare)")
		compare  = flag.Bool("compare", false, "compare two -record files: benchmark -compare a.jsonl b.jsonl")
		specOut  = flag.Bool("spec", false, "print BENCHMARK.json from the tables in spec.go")
	)
	flag.Parse()
	if *specOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(spec()); err != nil {
			fatal("%v", err)
		}
		return
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: benchmark -compare a.jsonl b.jsonl")
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	sc, ok := scales[*scale]
	if !ok {
		fatal("unknown -scale %q", *scale)
	}
	hdr := header{
		Workload: *name, Seed: *seed, Seconds: *seconds, Trace: *traced, Scale: *scale,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit(),
		Unresolved: runtime.NumCPU() < 2,
	}
	rec, err := run(hdr, sc, *outDir)
	if err != nil {
		fatal("%s: %v", *name, err)
	}
	report(rec)
	if *recordTo != "" {
		if err := appendRecord(*recordTo, rec); err != nil {
			fatal("%v", err)
		}
	}
	if err := printResult(rec); err != nil {
		fatal("%v", err)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

// run executes one workload: set-up several times (the median is setup_s),
// then the untraced window or the traced series.
func run(hdr header, sc scale, outDir string) (*record, error) {
	w := newWorkload(hdr.Workload, hdr.Seed, sc)
	if w == nil {
		return nil, fmt.Errorf("unknown workload (want one of %v)", workloads)
	}
	defer w.close()
	r := &result{metrics: map[string]value{}}
	var tr *tracer
	if hdr.Trace != 0 {
		tr = newTracer(hdr.Workload)
	}
	l := tr.lane()
	root, endRoot := l.open(0, "workload")

	var setups series
	for i := 0; i < sc.setupRepeats; i++ {
		w.close()
		runtime.GC()
		id, end := l.open(root, "setup")
		t0 := time.Now()
		err := w.setup(l, id)
		setups = append(setups, time.Since(t0).Seconds())
		end()
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
	}
	r.set("setup_s", summarize(setups))

	want := endToEnd
	if tr == nil {
		if err := w.measure(hdr.Seconds, r); err != nil {
			return nil, err
		}
	} else {
		want = perLayer
		id, end := l.open(root, "layers")
		err := w.layers(hdr.Seconds, l, id, r)
		end()
		if err != nil {
			return nil, err
		}
	}
	endRoot()
	if err := tr.write(outDir); err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}

	rec := &record{header: hdr, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]value{}}
	for _, m := range want {
		v, ok := r.metrics[m.Name]
		switch {
		case !ok && tr == nil:
			return nil, fmt.Errorf("end-to-end metric %s was not measured", m.Name)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			return nil, fmt.Errorf("metric %s is not finite", m.Name)
		}
		v.Unit = m.Unit
		rec.Metrics[m.Name] = v
	}
	rec.Correct = r.failed == 0
	return rec, nil
}

// report prints every metric by name with its unit, spread and sample count.
func report(rec *record) {
	h := rec.header
	fmt.Printf("# %s seed=%d seconds=%g trace=%d scale=%s nproc=%d gomaxprocs=%d %s commit=%s\n",
		h.Workload, h.Seed, h.Seconds, h.Trace, h.Scale, h.NProc, h.GOMAXPROCS, h.GoVersion, h.Commit)
	if h.Unresolved {
		fmt.Println("# nproc < 2: P=2 and 2-connection numbers are unresolved on this host")
	}
	want := endToEnd
	if h.Trace != 0 {
		want = perLayer
	}
	for _, m := range want {
		v := rec.Metrics[m.Name]
		fmt.Printf("%-42s %14.6g %-8s n=%-6d q1=%.6g q3=%.6g\n", m.Name, v.Value, v.Unit, v.N, v.Q1, v.Q3)
	}
	fmt.Printf("# attempted=%d failed=%d correct=%v\n", rec.Attempted, rec.Failed, rec.Correct)
}

func appendRecord(path string, rec *record) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(rec); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printResult writes the driver's result object as the last line of stdout.
func printResult(rec *record) error {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, map[string]mv{}}
	for name, v := range rec.Metrics {
		out.Metrics[name] = mv{v.Value, v.Unit}
	}
	return json.NewEncoder(os.Stdout).Encode(out)
}

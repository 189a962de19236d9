package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
)

// TestSpecMatchesBenchmarkJSON keeps the driver's copy of the catalogue equal
// to spec.go (regenerate it with `bash benchmark/run.sh -spec`).
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk benchmarkSpec
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&onDisk); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if want := spec(); !reflect.DeepEqual(onDisk, want) {
		t.Errorf("BENCHMARK.json differs from spec.go:\n got %+v\nwant %+v", onDisk, want)
	}
}

// TestSmoke runs every workload in both modes at tiny sizes: every metric of
// the catalogue is emitted, finite and carries its unit, the correctness
// checks pass, and the trace file parses with every span's parent present.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []int{0, 1} {
			t.Run(fmt.Sprintf("%s/trace=%d", w.Name, traced), func(t *testing.T) { smoke(t, w.Name, traced) })
		}
	}
}

func smoke(t *testing.T, workload string, traced int) {
	out := t.TempDir()
	hdr := header{Workload: workload, Seed: 1, Seconds: 0.3, Trace: traced, Scale: "tiny",
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	rec, err := run(hdr, scales["tiny"], out)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", rec.Correct, rec.Attempted, rec.Failed)
	}
	want := endToEnd
	if traced == 1 {
		want = perLayer
	}
	if len(rec.Metrics) != len(want) {
		t.Errorf("%d metrics emitted, the catalogue has %d", len(rec.Metrics), len(want))
	}
	for _, m := range want {
		v, ok := rec.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("%s is missing", m.Name)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != m.Unit:
			t.Errorf("%s = %v %q, want a finite value in %q", m.Name, v.Value, v.Unit, m.Unit)
		case traced == 0 && v.Value <= 0:
			t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, v.Value)
		}
	}
	if traced == 1 {
		checkTrace(t, filepath.Join(out, "trace.json"), workload)
	}
}

func checkTrace(t *testing.T, path, workload string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc traceFile
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	ids := map[int64]bool{0: true}
	for _, s := range doc.Spans {
		ids[s.ID] = true
	}
	if len(doc.Spans) < 10 {
		t.Errorf("%s: only %d spans", workload, len(doc.Spans))
	}
	for _, s := range doc.Spans {
		if !ids[s.Parent] || s.Workload != workload || s.Name == "" || s.EndNS < s.StartNS {
			t.Errorf("%s: bad span %+v", workload, s)
		}
	}
	for name, ns := range doc.SelfNS {
		if ns < 0 {
			t.Errorf("%s: self time of %s is %d ns", workload, name, ns)
		}
	}
}

// TestCompare: two sets of the same runs agree; a set 30% slower breaches
// op_ms (bound 10%); a set whose spread exceeds the bound is unresolved.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, scaleOp func(i int) float64) string {
		path := filepath.Join(dir, name)
		for _, w := range workloads {
			for i := 0; i < 10; i++ {
				rec := &record{header: header{Workload: w.Name, Seed: int64(i)}, Correct: true, Attempted: 1, Metrics: map[string]value{}}
				for _, m := range endToEnd {
					rec.Metrics[m.Name] = scalar(100 + float64(i)/10)
				}
				rec.Metrics["op_ms"] = scalar((100 + float64(i)/10) * scaleOp(i))
				if err := appendRecord(path, rec); err != nil {
					t.Fatal(err)
				}
			}
		}
		return path
	}
	same := func(int) float64 { return 1 }
	a, b := write("a.jsonl", same), write("b.jsonl", same)
	slow := write("slow.jsonl", func(int) float64 { return 1.3 })
	noisy := write("noisy.jsonl", func(i int) float64 { return 1 + float64(i%5)/10 })

	var out bytes.Buffer
	if code := compareFiles(&out, a, b); code != 0 || bytes.Contains(out.Bytes(), []byte("unresolved")) {
		t.Errorf("A/A: exit %d\n%s", code, &out)
	}
	out.Reset()
	if code := compareFiles(&out, a, slow); code != 1 || !bytes.Contains(out.Bytes(), []byte("BREACH")) {
		t.Errorf("30%% slower: exit %d\n%s", code, &out)
	}
	out.Reset()
	if code := compareFiles(&out, a, noisy); code != 0 || !bytes.Contains(out.Bytes(), []byte("unresolved")) {
		t.Errorf("noisy: exit %d\n%s", code, &out)
	}
}

// TestSpreadMatchesPython: statistics.quantiles(range(1, 11), n=4) is
// [2.75, 5.5, 8.25].
func TestSpreadMatchesPython(t *testing.T) {
	var s series
	for i := 1; i <= 10; i++ {
		s = append(s, float64(i))
	}
	if got, want := spread(s), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

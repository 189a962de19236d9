package parclass

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (Table 1, Figures 8–11) plus the ablations the text
// discusses and micro-benchmarks of the hot paths. The benchmarks run the
// same harness as cmd/benchtab at a reduced default scale so that
// `go test -bench=. -benchmem` finishes in minutes; paper-scale runs
// (250K tuples) go through `go run ./cmd/benchtab -tuples 250000`.
//
// Speedup shapes are reported as benchmark metrics (speedup4/B-F7 etc. —
// build speedup at the figure's maximum processor count) so regressions in
// the scheduling policies show up in benchstat diffs.

import (
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/flat"
	"repro/internal/sim"
	"repro/internal/synth"
	"repro/internal/trace"
)

// benchTuples is the default benchmark dataset size. The paper uses 250K;
// 10K preserves the tree shapes at ~1/25 the cost.
const benchTuples = 10000

// reportSeries attaches each series' max-processor build speedup as a
// metric named speedup<P>/<scheme>-F<fn>.
func reportSeries(b *testing.B, series []bench.Series) {
	b.Helper()
	for _, s := range series {
		if len(s.Points) == 0 {
			continue
		}
		last := s.Points[len(s.Points)-1]
		fn := "?"
		if n := len(s.Dataset); n > 1 {
			fn = s.Dataset[:2]
		}
		b.ReportMetric(last.BuildSpeedup, fmt.Sprintf("speedup%d/%s-%s", last.Procs, s.Scheme, fn))
	}
}

func runFigureBench(b *testing.B, attrs int, storage core.Storage, maxP int) {
	b.Helper()
	procs := make([]int, maxP)
	for i := range procs {
		procs[i] = i + 1
	}
	var series []bench.Series
	for i := 0; i < b.N; i++ {
		var err error
		series, err = bench.RunFigure(bench.FigureOpts{
			Specs: []bench.DataSpec{
				{Function: 1, Attrs: attrs, Tuples: benchTuples, Seed: 1},
				{Function: 7, Attrs: attrs, Tuples: benchTuples, Seed: 1},
			},
			Storage: storage,
			Procs:   procs,
			Schemes: []sim.Scheme{sim.MWK, sim.Subtree},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSeries(b, series)
}

// BenchmarkTable1DatasetCharacteristics regenerates Table 1: serial builds
// of the four paper datasets, measuring setup/sort/build decomposition.
func BenchmarkTable1DatasetCharacteristics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunTable1(bench.PaperSpecs(benchTuples), core.Memory, 0)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			// Report the paper's headline ratios for the two functions.
			b.ReportMetric(rows[0].SetupPct+rows[0].SortPct, "setupsort%/F1-A32")
			b.ReportMetric(rows[1].SetupPct+rows[1].SortPct, "setupsort%/F7-A32")
			b.ReportMetric(float64(rows[1].Levels), "levels/F7-A32")
		}
	}
}

// BenchmarkFig8LocalDiskA32 regenerates Figure 8: MWK and SUBTREE build
// time and speedup, disk-resident attribute lists, 32 attributes, P=1..4.
func BenchmarkFig8LocalDiskA32(b *testing.B) {
	runFigureBench(b, 32, core.Disk, 4)
}

// BenchmarkFig9LocalDiskA64 regenerates Figure 9 (64 attributes).
func BenchmarkFig9LocalDiskA64(b *testing.B) {
	runFigureBench(b, 64, core.Disk, 4)
}

// BenchmarkFig10MainMemoryA32 regenerates Figure 10: memory-resident
// lists, 32 attributes, P=1..8.
func BenchmarkFig10MainMemoryA32(b *testing.B) {
	runFigureBench(b, 32, core.Memory, 8)
}

// BenchmarkFig11MainMemoryA64 regenerates Figure 11 (64 attributes).
func BenchmarkFig11MainMemoryA64(b *testing.B) {
	runFigureBench(b, 64, core.Memory, 8)
}

// BenchmarkAblationSchemes compares all four schemes (§4.2: "MWK was indeed
// better than BASIC ... and performs as well or better than FWK").
func BenchmarkAblationSchemes(b *testing.B) {
	var series []bench.Series
	for i := 0; i < b.N; i++ {
		var err error
		series, err = bench.RunFigure(bench.FigureOpts{
			Specs:   []bench.DataSpec{{Function: 7, Attrs: 32, Tuples: benchTuples, Seed: 1}},
			Storage: core.Memory,
			Procs:   []int{1, 4},
			Schemes: []sim.Scheme{sim.Basic, sim.FWK, sim.MWK, sim.Subtree},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSeries(b, series)
}

// BenchmarkAblationWindow sweeps MWK's window size K (the paper found K=4
// works well in practice).
func BenchmarkAblationWindow(b *testing.B) {
	tbl, err := synth.Generate(synth.Config{
		Function: 7, Attrs: 32, Tuples: benchTuples, Seed: 1, Perturbation: 0.05,
	})
	if err != nil {
		b.Fatal(err)
	}
	tr := &trace.Trace{}
	if _, _, err := core.Build(tbl, core.Config{Algorithm: core.Serial, Trace: tr}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, k := range []int{1, 2, 4, 8, 16} {
			res, err := sim.Simulate(tr, sim.MWK, 4, k, sim.DefaultParams())
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(res.BuildSeconds*1000, fmt.Sprintf("buildms/K%d", k))
			}
		}
	}
}

// BenchmarkAblationProbe compares the three probe designs of §3.2.1 with
// real serial builds.
func BenchmarkAblationProbe(b *testing.B) {
	tbl, err := synth.Generate(synth.Config{
		Function: 7, Attrs: 16, Tuples: benchTuples, Seed: 1, Perturbation: 0.05,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, pk := range []struct {
		name  string
		probe ProbeKind
	}{{"GlobalBit", GlobalBitProbe}, {"LeafHash", LeafHashProbe}, {"LeafRelabel", LeafRelabelProbe}} {
		b.Run(pk.name, func(b *testing.B) {
			ds := &Dataset{tbl: tbl}
			for i := 0; i < b.N; i++ {
				if _, err := Train(ds, Options{Probe: pk.probe}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Micro-benchmarks of the hot paths ----

// BenchmarkSerialBuild measures end-to-end serial SPRINT throughput.
func BenchmarkSerialBuild(b *testing.B) {
	ds := synthDS(b, 7, benchTuples)
	b.SetBytes(int64(ds.NumRows()) * int64(ds.NumAttrs()) * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(ds, Options{Algorithm: Serial}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelBuild measures the goroutine schemes' wall clock at
// GOMAXPROCS workers (true speedup needs a multi-core host; see DESIGN.md).
func BenchmarkParallelBuild(b *testing.B) {
	ds := synthDS(b, 7, benchTuples)
	for _, alg := range []Algorithm{Basic, FWK, MWK, Subtree} {
		b.Run(alg.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Train(ds, Options{Algorithm: alg, Procs: 4}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDiskBuild measures the file-backed attribute-list path.
func BenchmarkDiskBuild(b *testing.B) {
	ds := synthDS(b, 7, benchTuples/2)
	dir := b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(ds, Options{Algorithm: Serial, Storage: Disk, TempDir: dir}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Serving hot path (flat predictor vs pointer tree) ----

// servingBenchSetup trains one F7 model and materializes the benchmark
// batch both as wire-form string rows and as decoded tuples.
func servingBenchSetup(b *testing.B) (*Model, []map[string]string, []dataset.Tuple) {
	b.Helper()
	ds := synthDS(b, 7, benchTuples)
	m, err := Train(ds, Options{})
	if err != nil {
		b.Fatal(err)
	}
	rows := datasetRows(ds, benchTuples)
	tus := make([]dataset.Tuple, ds.NumRows())
	for i := range tus {
		tus[i] = ds.tbl.Row(i)
	}
	return m, rows, tus
}

// reportRowRate attaches classified rows/second so the three serving
// benchmarks compare directly in benchstat output.
func reportRowRate(b *testing.B, rows int) {
	b.Helper()
	b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

// BenchmarkPredictPointer is the pre-serving baseline: per-row map decode
// into fresh tuple buffers plus a pointer-chasing walk of the tree itself
// (not Model.Predict, which runs the compiled vote).
func BenchmarkPredictPointer(b *testing.B) {
	m, rows, _ := servingBenchSetup(b)
	tr, nAttrs := m.Tree(), len(m.Schema().Attrs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, row := range rows {
			tu := dataset.Tuple{Cont: make([]float64, nAttrs), Cat: make([]int32, nAttrs)}
			if err := m.dec.named(row, tu); err != nil {
				b.Fatal(err)
			}
			tr.Predict(tu)
		}
	}
	reportRowRate(b, len(rows))
}

// BenchmarkPredictFlat isolates the compiled flat-array tree walk over
// pre-decoded tuples.
func BenchmarkPredictFlat(b *testing.B) {
	m, _, tus := servingBenchSetup(b)
	ft, err := flat.Compile(m.Tree())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range tus {
			ft.Predict(tus[j])
		}
	}
	reportRowRate(b, len(tus))
}

// BenchmarkPredictBatchParallel is the full serving path: PredictBatch's
// sharded decode + compiled walk over string rows, the path parclassd's
// /predict batches take.
func BenchmarkPredictBatchParallel(b *testing.B) {
	m, rows, _ := servingBenchSetup(b)
	if err := m.Compile(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.PredictBatch(rows); err != nil {
			b.Fatal(err)
		}
	}
	reportRowRate(b, len(rows))
}

// BenchmarkSyntheticGeneration measures the data generator.
func BenchmarkSyntheticGeneration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Synthetic(SyntheticConfig{
			Function: 7, Attrs: 32, Tuples: benchTuples, Seed: int64(i), Perturbation: 0.05,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

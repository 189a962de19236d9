// Package bench is the experiment harness that regenerates the paper's
// evaluation — Table 1 and Figures 8–11 plus the ablations discussed in the
// text — from the reimplementation. It is shared by cmd/benchtab and the
// repository's testing.B benchmarks.
package bench

import (
	"fmt"
	"io"
	"math"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/prune"
	"repro/internal/sim"
	"repro/internal/synth"
	"repro/internal/trace"
	"repro/internal/tree"
)

// DataSpec names one synthetic dataset in the paper's Fx-Ay-DzK scheme.
type DataSpec struct {
	Function int
	Attrs    int
	Tuples   int
	Seed     int64
}

// Name returns the paper-style dataset name.
func (d DataSpec) Name() string {
	return synth.Config{Function: d.Function, Attrs: d.Attrs, Tuples: d.Tuples}.Name()
}

// Generate materializes the dataset. The evaluation datasets are generated
// without perturbation: the paper's Table 1 contrast — F1 "results in
// fairly small decision trees, while Function 7 ... produces large trees" —
// comes from F1's concept being axis-parallel (two age cuts suffice) while
// F7's oblique linear boundary forces many axis-parallel splits; value
// perturbation would blur F1's boundary and inflate its tree with noise
// chasing, destroying the shape the paper reports.
func (d DataSpec) Generate() (*dataset.Table, error) {
	return synth.Generate(synth.Config{
		Function: d.Function, Attrs: d.Attrs, Tuples: d.Tuples,
		Seed: d.Seed,
	})
}

// ParseSpec parses a paper-style dataset name "Fx-Ay-DzK" (case
// insensitive; the trailing K multiplies by 1000) into a DataSpec with
// seed 1.
func ParseSpec(s string) (DataSpec, error) {
	m := specRe.FindStringSubmatch(s)
	if m == nil {
		return DataSpec{}, fmt.Errorf("bench: bad dataset spec %q (want Fx-Ay-DzK)", s)
	}
	fn, _ := strconv.Atoi(m[1])
	attrs, _ := strconv.Atoi(m[2])
	tuples, _ := strconv.Atoi(m[3])
	if m[4] != "" {
		tuples *= 1000
	}
	return DataSpec{Function: fn, Attrs: attrs, Tuples: tuples, Seed: 1}, nil
}

var specRe = regexp.MustCompile(`^[Ff](\d+)-[Aa](\d+)-[Dd](\d+)([Kk]?)$`)

// PaperSpecs returns the four datasets of the paper's evaluation, scaled to
// `tuples` records (the paper uses 250K).
func PaperSpecs(tuples int) []DataSpec {
	return []DataSpec{
		{Function: 1, Attrs: 32, Tuples: tuples, Seed: 1},
		{Function: 7, Attrs: 32, Tuples: tuples, Seed: 1},
		{Function: 1, Attrs: 64, Tuples: tuples, Seed: 1},
		{Function: 7, Attrs: 64, Tuples: tuples, Seed: 1},
	}
}

// Table1Row is one row of the paper's Table 1: dataset characteristics and
// sequential setup/sort times.
type Table1Row struct {
	Name      string
	DBMB      float64 // initial database size (attribute lists), MB
	Levels    int
	MaxLeaves int
	SetupSec  float64
	SortSec   float64
	TotalSec  float64
	SetupPct  float64
	SortPct   float64
	// PrunePct is MDL pruning's share of total time — the paper cites
	// SLIQ's finding that it is "usually less than 1%", justifying its
	// focus on the build phase.
	PrunePct float64
}

// RunTable1 builds each dataset serially and reports its characteristics.
// Each dataset is built three times and the minimum of each phase timing is
// reported, removing measurement noise (the builds are deterministic).
func RunTable1(specs []DataSpec, storage core.Storage, maxDepth int) ([]Table1Row, error) {
	rows := make([]Table1Row, 0, len(specs))
	for _, spec := range specs {
		tbl, err := spec.Generate()
		if err != nil {
			return nil, err
		}
		var tr *tree.Tree
		var tm core.Timings
		for run := 0; run < 3; run++ {
			curTree, cur, err := core.Build(tbl, core.Config{
				Algorithm: core.Serial, Storage: storage, MaxDepth: maxDepth,
			})
			if err != nil {
				return nil, fmt.Errorf("bench: building %s: %w", spec.Name(), err)
			}
			if run == 0 {
				tr, tm = curTree, cur
				continue
			}
			tm.Setup = min(tm.Setup, cur.Setup)
			tm.Sort = min(tm.Sort, cur.Sort)
			tm.Build = min(tm.Build, cur.Build)
		}
		st := tr.Stats()
		// Time the prune phase on the final tree (the paper's "<1%" claim).
		t0 := time.Now()
		prune.MDL(tr)
		pruneSec := time.Since(t0).Seconds()
		total := tm.Total().Seconds()
		row := Table1Row{
			Name: spec.Name(),
			// One 16-byte attribute-list record per attribute per tuple,
			// the paper's "DB size" notion for SPRINT inputs.
			DBMB:      float64(spec.Attrs) * float64(spec.Tuples) * 16 / (1 << 20),
			Levels:    st.Levels,
			MaxLeaves: st.MaxLeavesPerLevel,
			SetupSec:  tm.Setup.Seconds(),
			SortSec:   tm.Sort.Seconds(),
			TotalSec:  total,
		}
		if total > 0 {
			row.SetupPct = 100 * row.SetupSec / total
			row.SortPct = 100 * row.SortSec / total
			row.PrunePct = 100 * pruneSec / (total + pruneSec)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatTable1 renders Table 1 as aligned text.
func FormatTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintf(w, "%-14s %8s %7s %10s %9s %8s %9s %8s %7s %7s\n",
		"Dataset", "DB(MB)", "Levels", "MaxLv/Lvl", "Setup(s)", "Sort(s)", "Total(s)", "Setup%", "Sort%", "Prune%")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %8.1f %7d %10d %9.2f %8.2f %9.2f %7.1f%% %6.1f%% %6.2f%%\n",
			r.Name, r.DBMB, r.Levels, r.MaxLeaves,
			r.SetupSec, r.SortSec, r.TotalSec, r.SetupPct, r.SortPct, r.PrunePct)
	}
}

// Point is one (processors → time/speedup) measurement of a figure series.
type Point struct {
	Procs        int
	BuildSec     float64
	TotalSec     float64
	BuildSpeedup float64
	TotalSpeedup float64
}

// Series is one curve of a figure: a dataset × scheme combination.
type Series struct {
	Dataset string
	Scheme  string
	Points  []Point
}

// FigureOpts configures a speedup figure reproduction.
type FigureOpts struct {
	// Specs are the datasets of the figure (two per paper figure).
	Specs []DataSpec
	// Storage selects local-disk (Figures 8–9) or main-memory
	// (Figures 10–11) attribute lists for the profiling run.
	Storage core.Storage
	// Procs are the processor counts, e.g. 1..4 (Machine A) or 1..8
	// (Machine B).
	Procs []int
	// Schemes are the simulated algorithms (the paper plots MWK and
	// SUBTREE).
	Schemes []sim.Scheme
	// WindowK is MWK/FWK's K (default 4).
	WindowK int
	// Params are the synchronization cost constants.
	Params sim.Params
	// MaxDepth bounds tree growth (0 = unlimited, as in the paper).
	MaxDepth int
	// Mode selects virtual-time simulation (default; works on any host)
	// or real wall-clock goroutine runs (meaningful on multi-core hosts).
	Mode Mode
	// ProfileRuns is the number of serial profiling runs per dataset in
	// Simulated mode; per-unit costs are merged by taking the minimum
	// across runs, which removes measurement noise without inventing
	// costs (builds are deterministic, so the unit sets are identical).
	// Default 3.
	ProfileRuns int
	// TraceSink, when non-nil, receives each dataset's profiling trace.
	TraceSink func(name string, tr *trace.Trace)
	// ParallelSetup models the paper's "parallelizing the setup phase
	// more aggressively" follow-up in the total-time figures: the
	// setup+sort portion is divided by the processor count (attribute
	// lists are created and sorted independently per attribute, so the
	// phase parallelizes near-perfectly while attrs >= P). Real mode needs
	// no model: core.Build runs setup on Procs workers.
	ParallelSetup bool
}

// Mode selects how parallel times are obtained.
type Mode int

const (
	// Simulated replays measured unit costs in virtual time (DESIGN.md §2).
	Simulated Mode = iota
	// Real runs the goroutine implementations and measures wall clock;
	// speedup shapes require a host with as many cores as Procs.
	Real
)

// RunFigure reproduces one speedup figure.
func RunFigure(opts FigureOpts) ([]Series, error) {
	if opts.WindowK == 0 {
		opts.WindowK = 4
	}
	if opts.Params == (sim.Params{}) {
		opts.Params = sim.DefaultParams()
	}
	var out []Series
	for _, spec := range opts.Specs {
		tbl, err := spec.Generate()
		if err != nil {
			return nil, err
		}
		switch opts.Mode {
		case Simulated:
			series, err := simulatedSeries(tbl, spec, opts)
			if err != nil {
				return nil, err
			}
			out = append(out, series...)
		case Real:
			series, err := realSeries(tbl, spec, opts)
			if err != nil {
				return nil, err
			}
			out = append(out, series...)
		default:
			return nil, fmt.Errorf("bench: unknown mode %d", int(opts.Mode))
		}
	}
	return out, nil
}

func simulatedSeries(tbl *dataset.Table, spec DataSpec, opts FigureOpts) ([]Series, error) {
	runs := opts.ProfileRuns
	if runs <= 0 {
		runs = 3
	}
	var tr *trace.Trace
	for r := 0; r < runs; r++ {
		cur := &trace.Trace{Dataset: spec.Name()}
		if _, _, err := core.Build(tbl, core.Config{
			Algorithm: core.Serial, Storage: opts.Storage, MaxDepth: opts.MaxDepth, Trace: cur,
		}); err != nil {
			return nil, fmt.Errorf("bench: profiling %s: %w", spec.Name(), err)
		}
		if tr == nil {
			tr = cur
			continue
		}
		if err := mergeMinTrace(tr, cur); err != nil {
			return nil, fmt.Errorf("bench: profiling %s: %w", spec.Name(), err)
		}
	}
	if opts.TraceSink != nil {
		opts.TraceSink(spec.Name(), tr)
	}
	setupSort := tr.SetupSeconds + tr.SortSeconds
	var out []Series
	for _, scheme := range opts.Schemes {
		s := Series{Dataset: spec.Name(), Scheme: scheme.String()}
		base, err := sim.Simulate(tr, scheme, 1, opts.WindowK, opts.Params)
		if err != nil {
			return nil, err
		}
		for _, p := range opts.Procs {
			r, err := sim.Simulate(tr, scheme, p, opts.WindowK, opts.Params)
			if err != nil {
				return nil, err
			}
			ss := setupSort
			if opts.ParallelSetup {
				ss = setupSort / float64(p)
			}
			pt := Point{Procs: p, BuildSec: r.BuildSeconds, TotalSec: ss + r.BuildSeconds}
			if r.BuildSeconds > 0 {
				pt.BuildSpeedup = base.BuildSeconds / r.BuildSeconds
			}
			if pt.TotalSec > 0 {
				pt.TotalSpeedup = (setupSort + base.BuildSeconds) / pt.TotalSec
			}
			s.Points = append(s.Points, pt)
		}
		out = append(out, s)
	}
	return out, nil
}

func realSeries(tbl *dataset.Table, spec DataSpec, opts FigureOpts) ([]Series, error) {
	var out []Series
	for _, scheme := range opts.Schemes {
		alg, inner, err := schemeToAlgorithm(scheme)
		if err != nil {
			return nil, err
		}
		s := Series{Dataset: spec.Name(), Scheme: scheme.String()}
		var base core.Timings
		for i, p := range opts.Procs {
			_, tm, err := core.Build(tbl, core.Config{
				Algorithm: alg, SubtreeInner: inner, Procs: p, WindowK: opts.WindowK,
				Storage: opts.Storage, MaxDepth: opts.MaxDepth,
			})
			if err != nil {
				return nil, err
			}
			if i == 0 {
				base = tm
			}
			pt := Point{
				Procs:    p,
				BuildSec: tm.Build.Seconds(),
				TotalSec: tm.Total().Seconds(),
			}
			if tm.Build > 0 {
				pt.BuildSpeedup = base.Build.Seconds() / tm.Build.Seconds()
			}
			if tm.Total() > 0 {
				pt.TotalSpeedup = base.Total().Seconds() / tm.Total().Seconds()
			}
			s.Points = append(s.Points, pt)
		}
		out = append(out, s)
	}
	return out, nil
}

// mergeMinTrace folds src into dst by taking the per-unit minimum cost.
// The two traces must describe the same (deterministic) build.
func mergeMinTrace(dst, src *trace.Trace) error {
	if len(dst.Levels) != len(src.Levels) || dst.NAttrs != src.NAttrs {
		return fmt.Errorf("profiling runs disagree on tree shape (%d vs %d levels)",
			len(dst.Levels), len(src.Levels))
	}
	dst.SetupSeconds = math.Min(dst.SetupSeconds, src.SetupSeconds)
	dst.SortSeconds = math.Min(dst.SortSeconds, src.SortSeconds)
	dst.BuildSeconds = math.Min(dst.BuildSeconds, src.BuildSeconds)
	for i := range dst.Levels {
		dl, sl := dst.Levels[i].Leaves, src.Levels[i].Leaves
		if len(dl) != len(sl) {
			return fmt.Errorf("profiling runs disagree at level %d (%d vs %d leaves)",
				i, len(dl), len(sl))
		}
		for j := range dl {
			if dl[j].N != sl[j].N || dl[j].Parent != sl[j].Parent {
				return fmt.Errorf("profiling runs disagree at level %d leaf %d", i, j)
			}
			dl[j].W = math.Min(dl[j].W, sl[j].W)
			for a := range dl[j].E {
				dl[j].E[a] = math.Min(dl[j].E[a], sl[j].E[a])
				dl[j].S[a] = math.Min(dl[j].S[a], sl[j].S[a])
			}
		}
	}
	return nil
}

func schemeToAlgorithm(s sim.Scheme) (core.Algorithm, core.Algorithm, error) {
	switch s {
	case sim.Basic:
		return core.Basic, core.Basic, nil
	case sim.FWK:
		return core.FWK, core.Basic, nil
	case sim.MWK:
		return core.MWK, core.Basic, nil
	case sim.Subtree:
		return core.Subtree, core.Basic, nil
	case sim.RecPar:
		return core.RecPar, core.Basic, nil
	case sim.SubtreeMWK:
		return core.Subtree, core.MWK, nil
	default:
		return 0, 0, fmt.Errorf("bench: unknown scheme %d", int(s))
	}
}

// FormatFigure renders the series as the paper's chart rows: per dataset,
// build time and the two speedup charts across processor counts.
func FormatFigure(w io.Writer, title string, series []Series) {
	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("=", len(title)))
	for _, s := range series {
		fmt.Fprintf(w, "\n%s  [%s]\n", s.Dataset, s.Scheme)
		fmt.Fprintf(w, "  %6s %12s %12s %14s %14s\n",
			"procs", "build(s)", "total(s)", "speedup(build)", "speedup(total)")
		for _, p := range s.Points {
			fmt.Fprintf(w, "  %6d %12.3f %12.3f %14.2f %14.2f\n",
				p.Procs, p.BuildSec, p.TotalSec, p.BuildSpeedup, p.TotalSpeedup)
		}
	}
}

// WriteSeriesCSV writes figure series as CSV rows
// (dataset,scheme,procs,build_s,total_s,speedup_build,speedup_total),
// ready for plotting.
func WriteSeriesCSV(w io.Writer, series []Series) error {
	if _, err := fmt.Fprintln(w, "dataset,scheme,procs,build_s,total_s,speedup_build,speedup_total"); err != nil {
		return err
	}
	for _, s := range series {
		for _, p := range s.Points {
			if _, err := fmt.Fprintf(w, "%s,%s,%d,%.6f,%.6f,%.4f,%.4f\n",
				s.Dataset, s.Scheme, p.Procs, p.BuildSec, p.TotalSec,
				p.BuildSpeedup, p.TotalSpeedup); err != nil {
				return err
			}
		}
	}
	return nil
}

// GOMAXPROCSNote returns a human-readable warning when Real mode cannot show
// speedups on this host.
func GOMAXPROCSNote(maxProcs int) string {
	if runtime.NumCPU() >= maxProcs {
		return ""
	}
	return fmt.Sprintf("note: host has %d CPU(s); real-mode speedups above that are not physically realizable (use simulated mode)",
		runtime.NumCPU())
}

// TreeShapeSummary reports the tree shape the paper discusses for a spec
// (F1 tiny, F7 large); used by EXPERIMENTS.md generation and tests.
func TreeShapeSummary(spec DataSpec, maxDepth int) (tree.Stats, error) {
	tbl, err := spec.Generate()
	if err != nil {
		return tree.Stats{}, err
	}
	tr, _, err := core.Build(tbl, core.Config{Algorithm: core.Serial, MaxDepth: maxDepth})
	if err != nil {
		return tree.Stats{}, err
	}
	return tr.Stats(), nil
}

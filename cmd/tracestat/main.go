// Command tracestat inspects a profiling trace (produced with
// `benchtab -trace-dir`) or profiles a synthetic dataset on the spot, then
// prints the trace's cost anatomy and each scheme's simulated time,
// speedup and processor efficiency. It is the diagnostic companion of the
// virtual-time simulator.
//
// With -measure it switches from the simulator to real instrumented
// builds: each scheme is trained for real at -procs workers and the
// measured per-worker E/W/S/barrier/idle table (Model.BuildTrace) is
// printed instead of simulated times.
//
// Usage:
//
//	tracestat -trace F7-A32-D100K.trace.json -procs 4
//	tracestat -synthetic F7-A32-D20K -procs 8
//	tracestat -synthetic F7-A32-D20K -procs 4 -measure
package main

import (
	"flag"
	"fmt"
	"log"

	parclass "repro"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/sim"
	"repro/internal/synth"
	"repro/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tracestat: ")
	var (
		tracePath = flag.String("trace", "", "trace JSON file to inspect")
		spec      = flag.String("synthetic", "", "profile this synthetic spec instead (Fx-Ay-DzK)")
		procs     = flag.Int("procs", 4, "processor count for the per-scheme simulation")
		windowK   = flag.Int("window", 4, "window size K")
		measure   = flag.Bool("measure", false,
			"run real instrumented builds (needs -synthetic) and print measured per-worker E/W/S tables")
	)
	flag.Parse()

	if *measure {
		if *spec == "" {
			log.Fatal("-measure needs -synthetic")
		}
		if err := measureBuilds(*spec, *procs); err != nil {
			log.Fatal(err)
		}
		return
	}

	tr, err := loadTrace(*tracePath, *spec)
	if err != nil {
		log.Fatal(err)
	}

	// Anatomy.
	var e, w, s float64
	leaves := 0
	maxLeaves := 0
	for i := range tr.Levels {
		lv := &tr.Levels[i]
		if len(lv.Leaves) > maxLeaves {
			maxLeaves = len(lv.Leaves)
		}
		for j := range lv.Leaves {
			lf := &lv.Leaves[j]
			e += lf.TotalE()
			w += lf.W
			s += lf.TotalS()
			leaves++
		}
	}
	total := e + w + s
	fmt.Printf("trace %s: %d tuples × %d attributes\n", tr.Dataset, tr.NTuples, tr.NAttrs)
	fmt.Printf("  levels=%d  leaves=%d  max leaves/level=%d\n", len(tr.Levels), leaves, maxLeaves)
	fmt.Printf("  setup=%.3fs sort=%.3fs build(serial)=%.3fs\n",
		tr.SetupSeconds, tr.SortSeconds, tr.BuildSeconds)
	fmt.Printf("  unit costs: E=%.3fs (%.1f%%)  W=%.3fs (%.1f%%)  S=%.3fs (%.1f%%)\n",
		e, 100*e/total, w, 100*w/total, s, 100*s/total)

	// Per-scheme simulation.
	fmt.Printf("\nsimulated at P=%d (K=%d):\n", *procs, *windowK)
	fmt.Printf("  %-8s %12s %9s %11s %8s %9s\n", "scheme", "build(s)", "speedup", "efficiency", "grabs", "barriers")
	for _, scheme := range []sim.Scheme{sim.Basic, sim.FWK, sim.MWK, sim.Subtree} {
		base, err := sim.Simulate(tr, scheme, 1, *windowK, sim.DefaultParams())
		if err != nil {
			log.Fatal(err)
		}
		r, err := sim.Simulate(tr, scheme, *procs, *windowK, sim.DefaultParams())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-8s %12.4f %9.2f %10.1f%% %8d %9d\n",
			scheme, r.BuildSeconds, base.BuildSeconds/r.BuildSeconds,
			100*r.Efficiency(), r.Grabs, r.Barriers)
	}
}

// measureBuilds trains every scheme for real on the spec and prints each
// run's measured per-worker phase table.
func measureBuilds(spec string, procs int) error {
	tbl, err := specTable(spec)
	if err != nil {
		return err
	}
	ds := parclass.DatasetFromTable(tbl)
	fmt.Printf("measured builds on %s:\n", spec)
	for _, alg := range []parclass.Algorithm{
		parclass.Serial, parclass.Basic, parclass.FWK, parclass.MWK, parclass.Subtree,
	} {
		p := procs
		if alg == parclass.Serial {
			p = 1
		}
		m, err := parclass.Train(ds, parclass.Options{Algorithm: alg, Procs: p})
		if err != nil {
			return fmt.Errorf("%s: %w", alg, err)
		}
		bt := m.BuildTrace()
		if bt == nil {
			return fmt.Errorf("%s: no build trace", alg)
		}
		fmt.Printf("\n%s\n", bt.Format())
	}
	return nil
}

func loadTrace(path, spec string) (*trace.Trace, error) {
	switch {
	case path != "" && spec != "":
		return nil, fmt.Errorf("use only one of -trace and -synthetic")
	case path != "":
		return trace.ReadFile(path)
	case spec != "":
		tbl, err := specTable(spec)
		if err != nil {
			return nil, err
		}
		tr := &trace.Trace{Dataset: spec}
		if _, _, err := core.Build(tbl, core.Config{Algorithm: core.Serial, Trace: tr}); err != nil {
			return nil, err
		}
		return tr, nil
	default:
		return nil, fmt.Errorf("need -trace or -synthetic")
	}
}

// specTable generates the table a -synthetic spec names, for both modes:
// the paper-style dataset at perturbation 0.05, so the simulated schemes
// and the measured builds grow the same tree.
func specTable(spec string) (*dataset.Table, error) {
	d, err := bench.ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	return synth.Generate(synth.Config{
		Function: d.Function, Attrs: d.Attrs, Tuples: d.Tuples,
		Seed: d.Seed, Perturbation: 0.05,
	})
}

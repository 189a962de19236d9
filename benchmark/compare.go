package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// readRecords loads a -record file, keeping the untraced runs, grouped by
// workload.
func readRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if rec.Trace == 0 {
			out[rec.Workload] = append(out[rec.Workload], rec)
		}
	}
	return out, sc.Err()
}

// compareFiles lists every end-to-end metric × workload of two sets of runs
// (a: the parent or first set, b: the change or second set) with both
// medians, the change from a to b in the metric's worse direction as a share
// of a's median, and the bound. A pair is "unresolved" when either set's
// interquartile range exceeds the bound (the runs cannot tell a change of
// that size from noise) or when a run was made on a host with one processor,
// and a "BREACH" when b is worse than a by more than the bound. The exit
// code is 1 when any pair is a breach or a run reported failures, else 0.
func compareFiles(out io.Writer, pathA, pathB string) int {
	a, err := readRecords(pathA)
	if err == nil && len(a) == 0 {
		err = fmt.Errorf("%s holds no untraced runs", pathA)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	b, err := readRecords(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	code := 0
	fmt.Fprintf(out, "%-18s %-18s %12s %12s %8s %7s %7s %6s  %s\n",
		"workload", "metric", "median a", "median b", "worse", "iqr a", "iqr b", "bound", "verdict")
	for _, w := range workloads {
		ra, rb := a[w.Name], b[w.Name]
		if len(ra) == 0 || len(rb) == 0 {
			fmt.Fprintf(out, "%-18s missing from one side (%d vs %d runs)\n", w.Name, len(ra), len(rb))
			code = 1
			continue
		}
		unresolvedHost := false
		for _, rec := range append(append([]record(nil), ra...), rb...) {
			unresolvedHost = unresolvedHost || rec.Unresolved
			if rec.Failed > 0 || !rec.Correct {
				fmt.Fprintf(out, "%-18s seed %d: %d of %d operations failed\n", w.Name, rec.Seed, rec.Failed, rec.Attempted)
				code = 1
			}
		}
		for _, m := range endToEnd {
			va, vb := values(ra, m.Name), values(rb, m.Name)
			ma, mb := va.median(), vb.median()
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			spreadA, spreadB := spread(va), spread(vb)
			verdict := "ok"
			switch {
			// setup_s is the median of several set-ups inside each run and is
			// judged on its medians alone, as the driver does.
			case unresolvedHost, m.Name != "setup_s" && (spreadA > m.Bound || spreadB > m.Bound):
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "BREACH"
				code = 1
			}
			fmt.Fprintf(out, "%-18s %-18s %12.6g %12.6g %+7.1f%% %6.1f%% %6.1f%% %5.1f%%  %s\n",
				w.Name, m.Name, ma, mb, 100*worse, 100*spreadA, 100*spreadB, 100*m.Bound, verdict)
		}
	}
	return code
}

func values(recs []record, metric string) series {
	var s series
	for _, r := range recs {
		s = append(s, r.Metrics[metric].Value)
	}
	return s
}

// spread is the interquartile range as a share of the median, with the
// quartiles exactly as Python's statistics.quantiles(values, n=4) gives
// them. One run has no spread.
func spread(s series) float64 {
	v := s.sorted()
	n := len(v)
	if n < 2 {
		return 0
	}
	quartile := func(i int) float64 {
		j, delta := i*(n+1)/4, i*(n+1)%4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		return (v[j-1]*float64(4-delta) + v[j]*float64(delta)) / 4
	}
	return (quartile(3) - quartile(1)) / s.median()
}

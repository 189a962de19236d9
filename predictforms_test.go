package parclass

import (
	"errors"
	"fmt"
	"slices"
	"testing"
)

// predictShape is one Predictor under test with a label for messages.
type predictShape struct {
	name string
	p    Predictor
}

// trainPredictShapes trains the three shapes every predict form must agree
// across: a Model, the 1-tree Forest that grows the same tree, and an
// 8-tree Forest.
func trainPredictShapes(t testing.TB, ds *Dataset) []predictShape {
	t.Helper()
	m, err := Train(ds, Options{MaxDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	f1, err := TrainForest(ds, Options{Trees: 1, SampleFrac: 1, FeatureFrac: 1, MaxDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	f8, err := TrainForest(ds, Options{Trees: 8, ForestSeed: 1, Procs: 2, MaxDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	return []predictShape{{"Model", m}, {"Forest1", f1}, {"Forest8", f8}}
}

// TestPredictFormsEquivalent runs every predict form on every shape: all
// forms of one shape predict the same classes (and Accuracy scores them),
// a Model and its 1-tree Forest predict identically, and malformed rows
// fail with the same sentinel and text on every shape — prefixed with the
// failing row ("row %d: ") on the batch forms, which report the lowest
// failing row when several shards fail.
func TestPredictFormsEquivalent(t *testing.T) {
	ds := synthDS(t, 7, 3000)
	shapes := trainPredictShapes(t, ds)
	const n = 600 // several shards at GOMAXPROCS >= 2 for every shape
	rows := datasetRows(ds, n)
	vrows := datasetValueRows(ds, n)

	forms := []struct {
		name string
		run  func(p Predictor) ([]string, error)
	}{
		{"Predict", func(p Predictor) ([]string, error) {
			out := make([]string, n)
			for i, row := range rows {
				var err error
				if out[i], err = p.Predict(row); err != nil {
					return nil, err
				}
			}
			return out, nil
		}},
		{"PredictValues", func(p Predictor) ([]string, error) {
			out := make([]string, n)
			for i, vals := range vrows {
				var err error
				if out[i], err = p.PredictValues(vals); err != nil {
					return nil, err
				}
			}
			return out, nil
		}},
		{"PredictBatch", func(p Predictor) ([]string, error) { return p.PredictBatch(rows) }},
		{"PredictValuesBatch", func(p Predictor) ([]string, error) { return p.PredictValuesBatch(vrows) }},
	}

	classes := ds.ClassNames()
	var modelPreds []string
	for _, sh := range shapes {
		all := sh.p.PredictDataset(ds)
		if len(all) != ds.NumRows() {
			t.Fatalf("%s: PredictDataset returned %d rows for %d", sh.name, len(all), ds.NumRows())
		}
		for _, form := range forms {
			got, err := form.run(sh.p)
			if err != nil {
				t.Fatalf("%s.%s: %v", sh.name, form.name, err)
			}
			for i := range got {
				if got[i] != all[i] {
					t.Fatalf("%s row %d: %s %q, PredictDataset %q", sh.name, i, form.name, got[i], all[i])
				}
			}
		}
		hits := 0
		for i, c := range all {
			if c == classes[ds.tbl.Class(i)] {
				hits++
			}
		}
		if got, want := sh.p.Accuracy(ds), float64(hits)/float64(ds.NumRows()); got != want {
			t.Fatalf("%s: Accuracy %g, PredictDataset scores %g", sh.name, got, want)
		}
		if sh.name == "Model" {
			modelPreds = all
		}
		if sh.name == "Forest1" {
			for i := range all {
				if all[i] != modelPreds[i] {
					t.Fatalf("row %d: 1-tree Forest %q, Model %q", i, all[i], modelPreds[i])
				}
			}
		}
		// Empty batches are a no-op, not an error.
		if out, err := sh.p.PredictBatch(nil); out != nil || err != nil {
			t.Fatalf("%s: empty PredictBatch = %v, %v", sh.name, out, err)
		}
		if out, err := sh.p.PredictValuesBatch(nil); out != nil || err != nil {
			t.Fatalf("%s: empty PredictValuesBatch = %v, %v", sh.name, out, err)
		}
	}

	// Malformed rows: nil marks a form the defect cannot be expressed in.
	withNamed := func(k, v string) map[string]string {
		row := make(map[string]string, len(rows[0]))
		for name, val := range rows[0] {
			row[name] = val
		}
		if v == "" {
			delete(row, k)
		} else {
			row[k] = v
		}
		return row
	}
	withValue := func(k, v string) []string {
		vals := append([]string(nil), vrows[0]...)
		vals[slices.Index(ds.AttrNames(), k)] = v
		return vals
	}
	bad := []struct {
		name     string
		named    map[string]string
		values   []string
		sentinel error
	}{
		{"wrong width", nil, vrows[0][:3], ErrUnknownAttribute},
		{"missing attribute", withNamed("age", ""), nil, ErrUnknownAttribute},
		{"unknown category", withNamed("car", "spaceship"), withValue("car", "spaceship"), ErrUnknownValue},
		{"unparsable float", withNamed("salary", "not-a-number"), withValue("salary", "not-a-number"), ErrUnknownValue},
		{"NaN", withNamed("salary", "NaN"), withValue("salary", "NaN"), ErrUnknownValue},
	}
	const first, second = 37, 450 // two failing rows in different shards
	for _, b := range bad {
		texts := map[string]string{}
		check := func(shape, form string, err error, prefix string) {
			t.Helper()
			if !errors.Is(err, b.sentinel) {
				t.Fatalf("%s %s.%s: error %v, want %v", b.name, shape, form, err, b.sentinel)
			}
			if want, ok := texts[form]; ok && err.Error() != want {
				t.Fatalf("%s %s.%s: error %q, other shapes say %q", b.name, shape, form, err, want)
			}
			texts[form] = err.Error()
			if prefix != "" && err.Error() != prefix+texts[form[:len(form)-len("Batch")]] {
				t.Fatalf("%s %s.%s: error %q, want %q + the single-row error", b.name, shape, form, err, prefix)
			}
		}
		prefix := fmt.Sprintf("row %d: ", first)
		for _, sh := range shapes {
			if b.named != nil {
				_, err := sh.p.Predict(b.named)
				check(sh.name, "Predict", err, "")
				batch := append([]map[string]string(nil), rows...)
				batch[first], batch[second] = b.named, b.named
				_, err = sh.p.PredictBatch(batch)
				check(sh.name, "PredictBatch", err, prefix)
			}
			if b.values != nil {
				_, err := sh.p.PredictValues(b.values)
				check(sh.name, "PredictValues", err, "")
				batch := append([][]string(nil), vrows...)
				batch[first], batch[second] = b.values, b.values
				_, err = sh.p.PredictValuesBatch(batch)
				check(sh.name, "PredictValuesBatch", err, prefix)
			}
		}
	}

	// ±Inf are ordered, so they route like extreme values rather than fail.
	for _, inf := range []string{"+Inf", "-Inf"} {
		for _, sh := range shapes {
			if _, err := sh.p.PredictValues(withValue("salary", inf)); err != nil {
				t.Fatalf("%s: salary %s: %v", sh.name, inf, err)
			}
		}
	}

	// Proba is a forest-only answer: a single tree's leaf distribution is
	// not a vote, and serve picks its inline response shape by this
	// assertion.
	for _, sh := range shapes {
		_, isProba := sh.p.(ProbaPredictor)
		if isProba != (sh.name != "Model") {
			t.Fatalf("%s: ProbaPredictor = %v", sh.name, isProba)
		}
	}
}

// TestPredictValuesAllocationBudget gates the single-row fast path: once
// compiled and warm, PredictValues allocates nothing per call on a Model
// or on an 8-tree Forest (its decode and vote scratch is pooled).
func TestPredictValuesAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	ds := synthDS(t, 7, 2000)
	shapes := trainPredictShapes(t, ds)
	vrows := datasetValueRows(ds, 64)
	for _, sh := range []predictShape{shapes[0], shapes[2]} {
		if err := sh.p.Compile(); err != nil {
			t.Fatal(err)
		}
		i := 0
		allocs := testing.AllocsPerRun(500, func() {
			if _, err := sh.p.PredictValues(vrows[i%len(vrows)]); err != nil {
				t.Fatal(err)
			}
			i++
		})
		if allocs != 0 {
			t.Fatalf("%s: PredictValues allocates %.2f times per call, want 0", sh.name, allocs)
		}
	}
}

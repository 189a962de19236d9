package ingest

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"

	parclass "repro"
	"repro/internal/dataset"
	"repro/internal/synth"
)

// testSchema is a tiny mixed schema: one continuous, one categorical.
func testSchema() *dataset.Schema {
	return &dataset.Schema{
		Attrs: []dataset.Attribute{
			{Name: "x", Kind: dataset.Continuous},
			{Name: "color", Kind: dataset.Categorical, Categories: []string{"red", "green"}},
		},
		Classes: []string{"A", "B"},
	}
}

func mustWindow(t *testing.T, capacity int) *Window {
	t.Helper()
	w, err := NewWindow(testSchema(), capacity)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestNewWindowRejectsBadInput(t *testing.T) {
	if _, err := NewWindow(testSchema(), 0); err == nil {
		t.Error("capacity 0 should fail")
	}
	if _, err := NewWindow(&dataset.Schema{}, 10); err == nil {
		t.Error("empty schema should fail")
	}
}

func TestDecodeValidates(t *testing.T) {
	w := mustWindow(t, 4)
	if _, err := w.Decode([]string{"1.5"}, "A"); err == nil {
		t.Error("short row should fail")
	}
	if _, err := w.Decode([]string{"zzz", "red"}, "A"); err == nil {
		t.Error("non-numeric continuous should fail")
	}
	if _, err := w.Decode([]string{"1.5", "blue"}, "A"); err == nil {
		t.Error("unknown category should fail")
	}
	if _, err := w.Decode([]string{"1.5", "red"}, "C"); err == nil {
		t.Error("unknown class should fail")
	}
	for _, raw := range []string{"NaN", "Inf", "-Inf"} {
		if _, err := w.Decode([]string{raw, "red"}, "A"); err == nil || !strings.Contains(err.Error(), `"x"`) {
			t.Errorf("non-finite %s: err %v, want one naming attribute \"x\"", raw, err)
		}
	}
	tu, err := w.Decode([]string{" 1.5 ", "green"}, "B")
	if err != nil {
		t.Fatalf("valid row rejected: %v", err)
	}
	if tu.Cont[0] != 1.5 || tu.Cat[1] != 1 || tu.Class != 1 {
		t.Fatalf("decoded %+v", tu)
	}
}

// appendN appends rows with x = start..start+n-1 so arrival order is
// recoverable from the snapshot.
func appendN(t *testing.T, w *Window, start, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		tu, err := w.Decode([]string{strconv.Itoa(start + i), "red"}, "A")
		if err != nil {
			t.Fatal(err)
		}
		w.Append(tu)
	}
}

func TestRingWrapKeepsNewestInOrder(t *testing.T) {
	w := mustWindow(t, 5)
	appendN(t, w, 0, 8) // rows 0..7 into a 5-slot ring → 3,4,5,6,7 survive
	if w.Size() != 5 || w.Total() != 8 {
		t.Fatalf("size %d total %d", w.Size(), w.Total())
	}
	train, holdout := w.Snapshot(0)
	if holdout.NumTuples() != 0 {
		t.Fatalf("holdoutEvery<2 produced %d holdout rows", holdout.NumTuples())
	}
	if train.NumTuples() != 5 {
		t.Fatalf("snapshot rows %d", train.NumTuples())
	}
	for i := 0; i < 5; i++ {
		if got := train.ContValue(0, i); got != float64(3+i) {
			t.Fatalf("snapshot row %d = %v, want %v (oldest-first order)", i, got, float64(3+i))
		}
	}
}

func TestSnapshotBeforeWrap(t *testing.T) {
	w := mustWindow(t, 10)
	appendN(t, w, 0, 4)
	train, _ := w.Snapshot(0)
	if train.NumTuples() != 4 {
		t.Fatalf("rows %d", train.NumTuples())
	}
	for i := 0; i < 4; i++ {
		if train.ContValue(0, i) != float64(i) {
			t.Fatalf("row %d = %v", i, train.ContValue(0, i))
		}
	}
}

func TestSnapshotHoldoutSplit(t *testing.T) {
	w := mustWindow(t, 20)
	appendN(t, w, 0, 20)
	train, holdout := w.Snapshot(5) // every 5th row (4,9,14,19) held out
	if train.NumTuples() != 16 || holdout.NumTuples() != 4 {
		t.Fatalf("train %d holdout %d", train.NumTuples(), holdout.NumTuples())
	}
	for i := 0; i < 4; i++ {
		if got := holdout.ContValue(0, i); got != float64(5*i+4) {
			t.Fatalf("holdout row %d = %v, want %v", i, got, float64(5*i+4))
		}
	}
	// Snapshot is a copy: later appends must not disturb it.
	appendN(t, w, 100, 20)
	if train.ContValue(0, 0) != 0 {
		t.Fatal("snapshot aliased the ring")
	}
}

func TestConcurrentAppendAndSnapshot(t *testing.T) {
	w := mustWindow(t, 64)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tus := make([]dataset.Tuple, 0, 8)
			for i := 0; i < 200; i++ {
				tu, err := w.Decode([]string{fmt.Sprint(g*1000 + i), "green"}, "B")
				if err != nil {
					t.Error(err)
					return
				}
				if i%2 == 0 {
					w.Append(tu)
				} else {
					tus = append(tus[:0], tu)
					w.AppendRows(tus)
				}
			}
		}(g)
	}
	for i := 0; i < 20; i++ {
		train, holdout := w.Snapshot(4)
		if n := train.NumTuples() + holdout.NumTuples(); n > 64 {
			t.Fatalf("snapshot has %d rows, capacity 64", n)
		}
	}
	wg.Wait()
	if w.Total() != 800 {
		t.Fatalf("total %d, want 800", w.Total())
	}
}

// fillFromSynth ingests n rows of a synthetic stream into w through the
// string decode path, like /v1/ingest would.
func fillFromSynth(t *testing.T, w *Window, cfg synth.Config) {
	t.Helper()
	st, err := synth.NewStreamer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]string, len(st.Schema().Attrs))
	for {
		tu, ok := st.Next()
		if !ok {
			return
		}
		for a, attr := range st.Schema().Attrs {
			if attr.Kind == dataset.Continuous {
				vals[a] = strconv.FormatFloat(tu.Cont[a], 'g', -1, 64)
			} else {
				vals[a] = attr.Categories[tu.Cat[a]]
			}
		}
		dec, err := w.Decode(vals, st.Schema().Classes[tu.Class])
		if err != nil {
			t.Fatal(err)
		}
		w.Append(dec)
	}
}

func trainOn(t *testing.T, cfg synth.Config, opt parclass.Options) parclass.Predictor {
	t.Helper()
	tbl, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := parclass.Train(parclass.DatasetFromTable(tbl), opt)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestRetrainSkipsSmallWindow(t *testing.T) {
	stream := synth.Config{Function: 1, Tuples: 100, Seed: 3}
	w, err := NewWindow(synth.Schema(9), 1000)
	if err != nil {
		t.Fatal(err)
	}
	fillFromSynth(t, w, stream)
	serving := trainOn(t, synth.Config{Function: 1, Tuples: 500, Seed: 4}, parclass.Options{})
	res, err := Retrain(w, serving, RetrainConfig{MinRows: 500})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != OutcomeSkipped || res.Candidate != nil {
		t.Fatalf("outcome %q candidate %v, want skip", res.Outcome, res.Candidate)
	}
	if res.WindowRows != 100 {
		t.Fatalf("window rows %d", res.WindowRows)
	}
}

func TestRetrainTripwireRejectsWorseCandidate(t *testing.T) {
	// Serving model: a full tree for F7. Candidate: depth-1 stump on the
	// same distribution — strictly worse, so the tripwire must hold.
	w, err := NewWindow(synth.Schema(9), 4000)
	if err != nil {
		t.Fatal(err)
	}
	fillFromSynth(t, w, synth.Config{Function: 7, Tuples: 3000, Seed: 11})
	serving := trainOn(t, synth.Config{Function: 7, Tuples: 3000, Seed: 12}, parclass.Options{})
	res, err := Retrain(w, serving, RetrainConfig{
		MinRows: 100,
		Options: &parclass.Options{Algorithm: parclass.Hist, MaxDepth: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != OutcomeRejected {
		t.Fatalf("outcome %q (cand %.3f serv %.3f), want rejected",
			res.Outcome, res.CandidateAcc, res.ServingAcc)
	}
	if res.Candidate != nil {
		t.Fatal("rejected retrain still returned a candidate")
	}
	if res.CandidateAcc >= res.ServingAcc {
		t.Fatalf("stump %.3f should score below full tree %.3f", res.CandidateAcc, res.ServingAcc)
	}
}

func TestRetrainTripwireAcceptsBetterCandidate(t *testing.T) {
	// Serving model is stale: trained on F1, while the window holds F7
	// rows. The candidate retrains on the window and must win the swap.
	w, err := NewWindow(synth.Schema(9), 4000)
	if err != nil {
		t.Fatal(err)
	}
	fillFromSynth(t, w, synth.Config{Function: 7, Tuples: 3000, Seed: 21})
	serving := trainOn(t, synth.Config{Function: 1, Tuples: 3000, Seed: 22}, parclass.Options{})
	res, err := Retrain(w, serving, RetrainConfig{MinRows: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != OutcomeSwapped || res.Candidate == nil {
		t.Fatalf("outcome %q (cand %.3f serv %.3f), want swapped",
			res.Outcome, res.CandidateAcc, res.ServingAcc)
	}
	if res.TrainRows+res.HoldoutRows != res.WindowRows {
		t.Fatalf("rows don't add up: %d + %d != %d", res.TrainRows, res.HoldoutRows, res.WindowRows)
	}
	// The winning candidate really is better on fresh F7 data too.
	fresh, err := synth.Generate(synth.Config{Function: 7, Tuples: 2000, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	ds := parclass.DatasetFromTable(fresh)
	if ca, sa := res.Candidate.Accuracy(ds), serving.Accuracy(ds); ca <= sa {
		t.Fatalf("candidate %.3f not better than stale serving %.3f on fresh drift data", ca, sa)
	}
}

func TestRetrainMarginHoldsNearTies(t *testing.T) {
	// Candidate and serving are both competent F1 models; with a huge
	// margin requirement the swap must not fire even if the candidate
	// edges ahead.
	w, err := NewWindow(synth.Schema(9), 4000)
	if err != nil {
		t.Fatal(err)
	}
	fillFromSynth(t, w, synth.Config{Function: 1, Tuples: 3000, Seed: 31})
	serving := trainOn(t, synth.Config{Function: 1, Tuples: 3000, Seed: 32}, parclass.Options{})
	res, err := Retrain(w, serving, RetrainConfig{MinRows: 100, Margin: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != OutcomeRejected {
		t.Fatalf("outcome %q with margin 0.5, want rejected", res.Outcome)
	}
}

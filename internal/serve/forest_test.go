package serve

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	parclass "repro"
)

// trainForest grows a small bagged ensemble over synthetic data.
func trainForest(t testing.TB, trees int) *parclass.Forest {
	t.Helper()
	ds, err := parclass.Synthetic(parclass.SyntheticConfig{
		Function: 1, Tuples: 2000, Seed: 7, Perturbation: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := parclass.TrainForest(ds, parclass.Options{
		Trees: trees, ForestSeed: 11, MaxDepth: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// A forest-served single-row predict answers with the vote distribution
// and the ensemble size; batch responses carry the size only.
func TestForestPredictProbaAndTrees(t *testing.T) {
	f := trainForest(t, 5)
	s := New("")
	if _, err := s.Load("default", f, "test"); err != nil {
		t.Fatal(err)
	}
	// Admission control must not change the response: single-row forest
	// requests still carry proba.
	if err := s.EnableBatching(BatchConfig{QueueDepth: 16}); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := newHTTPServer(t, s)

	var single predictResponse
	if code := postJSON(t, ts+"/v1/predict", predictRequest{Row: sampleRow("25")}, &single); code != 200 {
		t.Fatalf("single predict status %d", code)
	}
	if single.Trees != 5 {
		t.Fatalf("trees = %d, want 5", single.Trees)
	}
	if len(single.Proba) == 0 {
		t.Fatal("single-row forest response has no proba")
	}
	var sum float64
	for _, p := range single.Proba {
		sum += p
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("proba sums to %g", sum)
	}
	want, wantProba, err := f.PredictProba(sampleRow("25"))
	if err != nil {
		t.Fatal(err)
	}
	if single.Prediction != want {
		t.Fatalf("prediction %q, want %q", single.Prediction, want)
	}
	for c, p := range wantProba {
		if single.Proba[c] != p {
			t.Fatalf("proba[%s] = %g, want %g", c, single.Proba[c], p)
		}
	}

	var batch predictResponse
	rows := []map[string]string{sampleRow("25"), sampleRow("50")}
	if code := postJSON(t, ts+"/v1/predict", predictRequest{Rows: rows}, &batch); code != 200 {
		t.Fatalf("batch predict status %d", code)
	}
	if batch.Trees != 5 {
		t.Fatalf("batch trees = %d, want 5", batch.Trees)
	}
	if batch.Proba != nil {
		t.Fatalf("batch response carries proba: %v", batch.Proba)
	}

	// Model info reports the ensemble size too.
	var info ModelInfo
	if code := getJSON(t, ts+"/v1/model/default", &info); code != 200 {
		t.Fatalf("model info status %d", code)
	}
	if info.Trees != 5 {
		t.Fatalf("info.Trees = %d, want 5", info.Trees)
	}
}

// Single-tree responses must not change shape: no proba or trees keys may
// appear in the raw body, so pre-forest clients see byte-identical output.
func TestSingleTreeResponseShapeUnchanged(t *testing.T) {
	m := trainModel(t, 1, 2000)
	_, ts := newTestServer(t, m)
	body := postRawBody(t, ts.URL+"/v1/predict", `{"row":{"salary":"50000","commission":"20000","age":"25","elevel":"e2","car":"make3","zipcode":"zip1","hvalue":"100000","hyears":"10","loan":"100000"}}`)
	for _, key := range []string{`"proba"`, `"trees"`} {
		if strings.Contains(body, key) {
			t.Fatalf("single-tree response leaked %s: %s", key, body)
		}
	}
	var info ModelInfo
	if code := getJSON(t, ts.URL+"/v1/model/default", &info); code != 200 {
		t.Fatalf("model info status %d", code)
	}
	if info.Trees != 0 {
		t.Fatalf("single-tree info.Trees = %d, want omitted 0", info.Trees)
	}
}

// A hot swap can replace a single tree with a forest: the v2 envelope
// uploads through the same endpoint and the response shape follows.
func TestModelSwapTreeToForest(t *testing.T) {
	m := trainModel(t, 1, 2000)
	_, ts := newTestServer(t, m)

	f := trainForest(t, 3)
	var buf bytes.Buffer
	if err := f.WriteModel(&buf); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/models/default", "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("forest upload status %d", resp.StatusCode)
	}

	var single predictResponse
	if code := postJSON(t, ts.URL+"/v1/predict", predictRequest{Row: sampleRow("25")}, &single); code != 200 {
		t.Fatalf("predict after swap status %d", code)
	}
	if single.Trees != 3 || len(single.Proba) == 0 {
		t.Fatalf("post-swap response not forest-shaped: %+v", single)
	}
}

// postRawBody posts a raw JSON string and returns the raw response body.
func postRawBody(t testing.TB, url, body string) string {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestModelInfoOOB: a bootstrapped forest exposes its out-of-bag estimate
// on /v1/model/{name}; a single tree must not grow the field.
func TestModelInfoOOB(t *testing.T) {
	f := trainForest(t, 7)
	s := New("")
	if _, err := s.Load("default", f, "test"); err != nil {
		t.Fatal(err)
	}
	ts := newHTTPServer(t, s)
	var info ModelInfo
	if code := getJSON(t, ts+"/v1/model/default", &info); code != 200 {
		t.Fatalf("model info status %d", code)
	}
	if info.OOB == nil {
		t.Fatal("forest model info carries no oob field")
	}
	want, ok := f.OOBError()
	if !ok {
		t.Fatal("trained forest has no OOB estimate")
	}
	if *info.OOB != want || info.OOBRows != f.OOBRows() {
		t.Fatalf("info oob %g/%d, forest %g/%d", *info.OOB, info.OOBRows, want, f.OOBRows())
	}
	if *info.OOB < 0 || *info.OOB > 1 || info.OOBRows <= 0 {
		t.Fatalf("implausible OOB estimate %g over %d rows", *info.OOB, info.OOBRows)
	}

	// Single tree: raw body must not leak the keys.
	m := trainModel(t, 1, 1000)
	if _, err := s.Load("tree", m, "test"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts + "/v1/model/tree")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), `"oob"`) {
		t.Fatalf("single-tree model info leaked oob: %s", raw)
	}
}

// newHTTPServer mounts s on an httptest listener and returns its base URL.
func newHTTPServer(t testing.TB, s *Server) string {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

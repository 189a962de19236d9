package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"

	parclass "repro"
)

// trainModel grows a small model over synthetic data.
func trainModel(t testing.TB, fn, tuples int) *parclass.Model {
	t.Helper()
	ds, err := parclass.Synthetic(parclass.SyntheticConfig{
		Function: fn, Tuples: tuples, Seed: 7, Perturbation: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := parclass.Train(ds, parclass.Options{MaxDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// newTestServer starts an httptest server with one registered model.
func newTestServer(t testing.TB, m *parclass.Model) (*Server, *httptest.Server) {
	t.Helper()
	s := New("")
	if _, err := s.Load("default", m, "test"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// postJSON posts v and decodes the response into out (when non-nil).
func postJSON(t testing.TB, url string, v any, out any) int {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func getJSON(t testing.TB, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// sampleRow builds a row the F1/F7 schema accepts; age steers F1's rule.
func sampleRow(age string) map[string]string {
	return map[string]string{
		"salary": "50000", "commission": "20000", "age": age, "elevel": "e2",
		"car": "make3", "zipcode": "zip1", "hvalue": "100000",
		"hyears": "10", "loan": "100000",
	}
}

func TestPredictSingleAndBatch(t *testing.T) {
	m := trainModel(t, 1, 2000)
	_, ts := newTestServer(t, m)

	var single predictResponse
	if code := postJSON(t, ts.URL+"/v1/predict", predictRequest{Row: sampleRow("25")}, &single); code != 200 {
		t.Fatalf("single predict status %d", code)
	}
	want, err := m.Predict(sampleRow("25"))
	if err != nil {
		t.Fatal(err)
	}
	if single.Prediction != want || single.Rows != 1 {
		t.Fatalf("single = %+v, want prediction %q", single, want)
	}

	rows := []map[string]string{sampleRow("25"), sampleRow("50"), sampleRow("70")}
	var batch predictResponse
	if code := postJSON(t, ts.URL+"/v1/predict", predictRequest{Rows: rows}, &batch); code != 200 {
		t.Fatalf("batch predict status %d", code)
	}
	if len(batch.Predictions) != 3 || batch.Rows != 3 {
		t.Fatalf("batch = %+v", batch)
	}
	for i, row := range rows {
		w, _ := m.Predict(row)
		if batch.Predictions[i] != w {
			t.Fatalf("row %d: got %q want %q", i, batch.Predictions[i], w)
		}
	}
}

func TestPredictErrors(t *testing.T) {
	m := trainModel(t, 1, 1000)
	_, ts := newTestServer(t, m)

	// Unknown model.
	if code := postJSON(t, ts.URL+"/v1/predict", predictRequest{Model: "nope", Row: sampleRow("25")}, nil); code != 404 {
		t.Fatalf("unknown model status %d, want 404", code)
	}
	// Malformed JSON.
	resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("malformed body status %d, want 400", resp.StatusCode)
	}
	// Neither / both of row and rows.
	if code := postJSON(t, ts.URL+"/v1/predict", predictRequest{}, nil); code != 400 {
		t.Fatalf("empty request status %d, want 400", code)
	}
	if code := postJSON(t, ts.URL+"/v1/predict", predictRequest{
		Row: sampleRow("25"), Rows: []map[string]string{sampleRow("30")},
	}, nil); code != 400 {
		t.Fatalf("row+rows status %d, want 400", code)
	}
	// Undecodable row.
	bad := sampleRow("25")
	bad["car"] = "spaceship"
	if code := postJSON(t, ts.URL+"/v1/predict", predictRequest{Row: bad}, nil); code != 422 {
		t.Fatalf("bad category status %d, want 422", code)
	}
	if code := postJSON(t, ts.URL+"/v1/predict", predictRequest{
		Rows: []map[string]string{sampleRow("25"), bad},
	}, nil); code != 422 {
		t.Fatalf("bad batch row status %d, want 422", code)
	}
}

func TestHealthzMetricsAndInfo(t *testing.T) {
	m := trainModel(t, 1, 1500)
	_, ts := newTestServer(t, m)

	var health struct {
		Status string `json:"status"`
		Models int    `json:"models"`
	}
	if code := getJSON(t, ts.URL+"/v1/healthz", &health); code != 200 {
		t.Fatalf("healthz status %d", code)
	}
	if health.Status != "ok" || health.Models != 1 {
		t.Fatalf("healthz = %+v", health)
	}

	// Generate some traffic, then check the counters moved.
	for i := 0; i < 5; i++ {
		postJSON(t, ts.URL+"/v1/predict", predictRequest{Rows: []map[string]string{
			sampleRow("25"), sampleRow("60"),
		}}, nil)
	}
	postJSON(t, ts.URL+"/v1/predict", predictRequest{Model: "nope", Row: sampleRow("25")}, nil)

	var snap metricsSnapshot
	if code := getJSON(t, ts.URL+"/v1/metrics", &snap); code != 200 {
		t.Fatalf("metrics status %d", code)
	}
	pr := snap.Requests["predict"]
	if pr.Requests != 6 || pr.Errors != 1 {
		t.Fatalf("predict route = %+v", pr)
	}
	if snap.PredictionsTotal != 10 {
		t.Fatalf("predictions_total = %d, want 10", snap.PredictionsTotal)
	}
	if snap.PredictLatencyUS.Count != 5 || snap.PredictBatchRows.Count != 5 {
		t.Fatalf("histograms = %+v / %+v", snap.PredictLatencyUS, snap.PredictBatchRows)
	}
	var total int64
	for _, b := range snap.PredictLatencyUS.Buckets {
		total += b
	}
	if total != snap.PredictLatencyUS.Count {
		t.Fatalf("latency buckets sum %d != count %d", total, snap.PredictLatencyUS.Count)
	}
	if snap.Models["default"].Predictions != 10 {
		t.Fatalf("per-model counters = %+v", snap.Models["default"])
	}

	var info ModelInfo
	if code := getJSON(t, ts.URL+"/v1/model/default?rules=1", &info); code != 200 {
		t.Fatalf("model info status %d", code)
	}
	if info.Stats.Nodes < 3 || len(info.Classes) != 2 || len(info.Attrs) != 9 {
		t.Fatalf("model info = %+v", info)
	}
	if len(info.Rules) != info.Stats.Leaves {
		t.Fatalf("rules %d != leaves %d", len(info.Rules), info.Stats.Leaves)
	}
	if code := getJSON(t, ts.URL+"/v1/model/nope", nil); code != 404 {
		t.Fatalf("missing model info status %d, want 404", code)
	}

	var list struct {
		Models []struct {
			Name string `json:"name"`
		} `json:"models"`
	}
	if code := getJSON(t, ts.URL+"/v1/models", &list); code != 200 {
		t.Fatalf("models list status %d", code)
	}
	if len(list.Models) != 1 || list.Models[0].Name != "default" {
		t.Fatalf("models list = %+v", list)
	}
}

// modelBytes serializes a model the way SaveModel does.
func modelBytes(t testing.TB, m *parclass.Model) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.WriteModel(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestModelSwapEndpoint(t *testing.T) {
	m1 := trainModel(t, 1, 1500)
	s, ts := newTestServer(t, m1)

	// Upload a new version under the same name and a fresh name.
	m2 := trainModel(t, 7, 1500)
	for i, tc := range []struct {
		name    string
		swapped bool
	}{{"default", true}, {"fresh", false}} {
		resp, err := http.Post(ts.URL+"/v1/models/"+tc.name, "application/json",
			bytes.NewReader(modelBytes(t, m2)))
		if err != nil {
			t.Fatal(err)
		}
		var out struct {
			Swapped bool `json:"swapped"`
		}
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil || resp.StatusCode != 200 {
			t.Fatalf("case %d: status %d err %v", i, resp.StatusCode, err)
		}
		if out.Swapped != tc.swapped {
			t.Fatalf("case %d: swapped = %v, want %v", i, out.Swapped, tc.swapped)
		}
	}
	if _, cur := s.current("default"); cur == nil || cur.model.Stats() != m2.Stats() {
		t.Fatal("default model was not replaced")
	}

	// Garbage body is rejected and leaves the registry untouched.
	resp, err := http.Post(ts.URL+"/v1/models/default", "application/json",
		bytes.NewReader([]byte("not a model")))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("garbage model status %d, want 400", resp.StatusCode)
	}
	if _, cur := s.current("default"); cur == nil || cur.model.Stats() != m2.Stats() {
		t.Fatal("failed upload disturbed the registry")
	}
}

// TestHotSwapUnderLoad is the subsystem's survival test (run under -race by
// the Makefile verify target): worker goroutines hammer /predict with
// single and batch requests while the main goroutine repeatedly hot-swaps
// the model between two versions. Every request must succeed with a
// prediction valid under one of the two versions.
func TestHotSwapUnderLoad(t *testing.T) {
	mA := trainModel(t, 1, 2000)
	mB := trainModel(t, 7, 2000)
	_, ts := newTestServer(t, mA)
	bodyA, bodyB := modelBytes(t, mA), modelBytes(t, mB)

	const workers = 8
	const perWorker = 40
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWorker; i++ {
				age := strconv.Itoa(20 + rng.Intn(60))
				var req predictRequest
				if i%2 == 0 {
					req.Row = sampleRow(age)
				} else {
					req.Rows = []map[string]string{sampleRow(age), sampleRow("33"), sampleRow("71")}
				}
				body, _ := json.Marshal(req)
				resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(body))
				if err != nil {
					errc <- err
					return
				}
				var out predictResponse
				err = json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if err != nil || resp.StatusCode != 200 {
					errc <- fmt.Errorf("worker %d req %d: status %d err %v", w, i, resp.StatusCode, err)
					return
				}
				preds := out.Predictions
				if out.Prediction != "" {
					preds = []string{out.Prediction}
				}
				for _, p := range preds {
					if p != "GroupA" && p != "GroupB" {
						errc <- fmt.Errorf("worker %d: impossible class %q", w, p)
						return
					}
				}
			}
		}(w)
	}

	// Swap continuously while the workers run.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 60; i++ {
			body := bodyA
			if i%2 == 0 {
				body = bodyB
			}
			resp, err := http.Post(ts.URL+"/v1/models/default", "application/json", bytes.NewReader(body))
			if err != nil {
				errc <- err
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != 200 {
				errc <- fmt.Errorf("swap %d: status %d", i, resp.StatusCode)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	var snap metricsSnapshot
	if code := getJSON(t, ts.URL+"/v1/metrics", &snap); code != 200 {
		t.Fatalf("metrics status %d", code)
	}
	if got := snap.Requests["predict"]; got.Errors != 0 || got.Requests != workers*perWorker {
		t.Fatalf("predict route after swap storm = %+v", got)
	}
	if snap.Models["default"].Swaps != 61 { // initial Load + 60 uploads
		t.Fatalf("swaps = %d, want 61", snap.Models["default"].Swaps)
	}
}

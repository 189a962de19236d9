package serve

import (
	"encoding/json"
	"net/http"
	"slices"
	"strings"
	"testing"

	parclass "repro"
)

// sampleValues is sampleRow in schema attribute order, for the positional
// predict form.
func sampleValues(m *parclass.Model, age string) []string {
	row := sampleRow(age)
	schema := m.Tree().Schema
	vals := make([]string, len(schema.Attrs))
	for a := range schema.Attrs {
		vals[a] = row[schema.Attrs[a].Name]
	}
	return vals
}

// TestV1Routes exercises every route under the /v1 prefix and checks the
// unversioned paths are gone.
func TestV1Routes(t *testing.T) {
	m := trainModel(t, 1, 2000)
	_, ts := newTestServer(t, m)

	want, err := m.Predict(sampleRow("25"))
	if err != nil {
		t.Fatal(err)
	}
	var v1 predictResponse
	if code := postJSON(t, ts.URL+"/v1/predict", predictRequest{Row: sampleRow("25")}, &v1); code != 200 {
		t.Fatalf("/v1/predict status %d", code)
	}
	if v1.Prediction != want {
		t.Fatalf("/v1/predict %q, model says %q", v1.Prediction, want)
	}
	if code := postJSON(t, ts.URL+"/predict", predictRequest{Row: sampleRow("25")}, nil); code != http.StatusNotFound {
		t.Fatalf("unversioned /predict status %d, want 404", code)
	}

	for _, path := range []string{"/v1/healthz", "/v1/metrics", "/v1/models", "/v1/model/default"} {
		var doc map[string]any
		if code := getJSON(t, ts.URL+path, &doc); code != 200 {
			t.Fatalf("GET %s status %d", path, code)
		}
		if len(doc) == 0 {
			t.Fatalf("GET %s returned empty document", path)
		}
	}
}

// TestMethodNotAllowed checks wrong-method hits on known paths answer 405
// with an Allow header and a JSON error body.
func TestMethodNotAllowed(t *testing.T) {
	m := trainModel(t, 1, 1000)
	_, ts := newTestServer(t, m)

	cases := []struct {
		method, path, allow string
	}{
		{http.MethodGet, "/v1/predict", "POST"},
		{http.MethodGet, "/v1/ingest", "POST"},
		{http.MethodDelete, "/v1/models/default", "POST"},
		{http.MethodPost, "/v1/healthz", "GET"},
		{http.MethodPost, "/v1/metrics", "GET"},
		{http.MethodPost, "/v1/models", "GET"},
		{http.MethodPut, "/v1/model/default", "GET"},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("%s %s: status %d, want 405", tc.method, tc.path, resp.StatusCode)
		}
		if got := resp.Header.Get("Allow"); got != tc.allow {
			t.Fatalf("%s %s: Allow %q, want %q", tc.method, tc.path, got, tc.allow)
		}
		var body map[string]string
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("%s %s: non-JSON 405 body: %v", tc.method, tc.path, err)
		}
		resp.Body.Close()
		if body["error"] == "" {
			t.Fatalf("%s %s: empty error body", tc.method, tc.path)
		}
	}
}

// TestPredictValuesRoute exercises the positional forms, single and batch,
// and their error mapping.
func TestPredictValuesRoute(t *testing.T) {
	m := trainModel(t, 1, 2000)
	_, ts := newTestServer(t, m)

	want, err := m.Predict(sampleRow("25"))
	if err != nil {
		t.Fatal(err)
	}
	var single predictResponse
	if code := postJSON(t, ts.URL+"/v1/predict", predictRequest{Values: sampleValues(m, "25")}, &single); code != 200 {
		t.Fatalf("values predict status %d", code)
	}
	if single.Prediction != want || single.Rows != 1 {
		t.Fatalf("values = %+v, want %q", single, want)
	}

	var batch predictResponse
	vrows := [][]string{sampleValues(m, "25"), sampleValues(m, "50"), sampleValues(m, "70")}
	if code := postJSON(t, ts.URL+"/v1/predict", predictRequest{ValuesRows: vrows}, &batch); code != 200 {
		t.Fatalf("values_rows status %d", code)
	}
	if batch.Rows != 3 || len(batch.Predictions) != 3 {
		t.Fatalf("values_rows = %+v", batch)
	}

	// Old clients may still send the removed "level_sync" kernel knob, with
	// any value: unknown keys are ignored and the answer is unchanged.
	var legacy predictResponse
	if code := postJSON(t, ts.URL+"/v1/predict", map[string]any{
		"values_rows": vrows, "level_sync": "sideways",
	}, &legacy); code != 200 {
		t.Fatalf("values_rows with level_sync status %d, want 200", code)
	}
	if !slices.Equal(legacy.Predictions, batch.Predictions) {
		t.Fatalf("level_sync changed predictions: %v vs %v", legacy.Predictions, batch.Predictions)
	}

	// A NaN value → 422 naming its row: no threshold orders NaN.
	nan := sampleRow("25")
	nan["salary"] = "NaN"
	nanBody, _ := json.Marshal(predictRequest{Rows: []map[string]string{sampleRow("25"), nan}})
	if code, doc := postRaw(t, ts.URL+"/v1/predict", string(nanBody)); code != 422 || !strings.HasPrefix(doc["error"], "row 1: ") {
		t.Fatalf("NaN value status %d body %v, want 422 for row 1", code, doc)
	}
	// Wrong width → 422.
	if code := postJSON(t, ts.URL+"/v1/predict", predictRequest{Values: []string{"1", "2"}}, nil); code != 422 {
		t.Fatalf("short values status %d, want 422", code)
	}
	// Two forms at once → 400.
	if code := postJSON(t, ts.URL+"/v1/predict", predictRequest{
		Row: sampleRow("25"), Values: sampleValues(m, "25"),
	}, nil); code != 400 {
		t.Fatalf("two forms status %d, want 400", code)
	}
}

// TestMetricsBuildSection attaches a finished build's monitor and checks
// /metrics surfaces its state and phase gauges.
func TestMetricsBuildSection(t *testing.T) {
	ds, err := parclass.Synthetic(parclass.SyntheticConfig{
		Function: 7, Tuples: 2000, Seed: 7, Perturbation: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	mon := parclass.NewBuildMonitor()
	m, err := parclass.Train(ds, parclass.Options{Algorithm: parclass.MWK, Procs: 2, Monitor: mon})
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, m)
	// No monitor attached yet: no build section.
	var snap metricsSnapshot
	if code := getJSON(t, ts.URL+"/v1/metrics", &snap); code != 200 {
		t.Fatalf("metrics status %d", code)
	}
	if snap.Build != nil {
		t.Fatalf("unexpected build section %+v", snap.Build)
	}
	s.SetBuildMonitor(mon)
	snap = metricsSnapshot{}
	if code := getJSON(t, ts.URL+"/v1/metrics", &snap); code != 200 {
		t.Fatalf("metrics status %d", code)
	}
	b := snap.Build
	if b == nil || b.State != "done" {
		t.Fatalf("build section %+v, want state done", b)
	}
	if !strings.EqualFold(b.Algorithm, "MWK") || b.Procs != 2 {
		t.Fatalf("build identity %+v", b)
	}
	var busy float64
	for _, ph := range []string{"eval", "winner", "split"} {
		busy += b.PhaseSeconds[ph]
	}
	if busy <= 0 {
		t.Fatalf("no busy phase time in %+v", b.PhaseSeconds)
	}
	if b.Skew < 1 || b.Efficiency <= 0 {
		t.Fatalf("skew/efficiency %+v", b)
	}
	if len(b.WorkerBusySecs) != 2 {
		t.Fatalf("worker busy list %+v", b.WorkerBusySecs)
	}
}

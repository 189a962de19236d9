package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	parclass "repro"
	"repro/internal/dataset"
	"repro/internal/ingest"
	"repro/internal/synth"
)

// newIngestServer is newTestServer plus EnableIngest.
func newIngestServer(t testing.TB, m parclass.Predictor, windowCap int) (*Server, *httptest.Server) {
	t.Helper()
	s := New("")
	if _, err := s.Load("default", m, "test"); err != nil {
		t.Fatal(err)
	}
	if err := s.EnableIngest(IngestConfig{WindowCap: windowCap}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// tupleValues renders a streamer tuple as the positional string row the
// ingest/predict wire forms use.
func tupleValues(schema *dataset.Schema, tu dataset.Tuple) []string {
	vals := make([]string, len(schema.Attrs))
	for a := range schema.Attrs {
		if schema.Attrs[a].Kind == dataset.Continuous {
			vals[a] = strconv.FormatFloat(tu.Cont[a], 'g', -1, 64)
		} else {
			vals[a] = schema.Attrs[a].Categories[tu.Cat[a]]
		}
	}
	return vals
}

// labeledRow is one wire-form row with its ground truth.
type labeledRow struct {
	vals  []string
	class string
}

// drawRows pulls n labeled rows off the streamer.
func drawRows(t testing.TB, st *synth.Streamer, n int) []labeledRow {
	t.Helper()
	out := make([]labeledRow, 0, n)
	for len(out) < n {
		tu, ok := st.Next()
		if !ok {
			t.Fatalf("stream exhausted after %d rows", len(out))
		}
		out = append(out, labeledRow{
			vals:  tupleValues(st.Schema(), tu),
			class: st.Schema().Classes[tu.Class],
		})
	}
	return out
}

// ingestRows posts rows as one bulk ingest request and asserts 200.
func ingestRows(t testing.TB, url string, rows []labeledRow) ingestResponse {
	t.Helper()
	req := ingestRequest{Rows: make([]ingestRow, len(rows))}
	for i, r := range rows {
		req.Rows[i] = ingestRow{Values: r.vals, Class: r.class}
	}
	var resp ingestResponse
	if code := postJSON(t, url+"/v1/ingest", req, &resp); code != 200 {
		t.Fatalf("bulk ingest status %d", code)
	}
	if resp.Accepted != len(rows) {
		t.Fatalf("accepted %d of %d rows", resp.Accepted, len(rows))
	}
	return resp
}

// servedAccuracy classifies rows through POST /v1/predict and returns the
// fraction matching their labels.
func servedAccuracy(t testing.TB, url string, rows []labeledRow) float64 {
	t.Helper()
	req := predictRequest{ValuesRows: make([][]string, len(rows))}
	for i, r := range rows {
		req.ValuesRows[i] = r.vals
	}
	var resp predictResponse
	if code := postJSON(t, url+"/v1/predict", req, &resp); code != 200 {
		t.Fatalf("probe predict status %d", code)
	}
	hit := 0
	for i, r := range rows {
		if resp.Predictions[i] == r.class {
			hit++
		}
	}
	return float64(hit) / float64(len(rows))
}

func TestIngestDisabled503(t *testing.T) {
	m := trainModel(t, 1, 1000)
	_, ts := newTestServer(t, m) // no EnableIngest
	code, doc := postRaw(t, ts.URL+"/v1/ingest", `{"values":["1"],"class":"GroupA"}`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("disabled ingest status %d, want 503", code)
	}
	if !strings.Contains(doc["error"], "not enabled") {
		t.Fatalf("503 body %q", doc["error"])
	}
}

func TestIngestContract(t *testing.T) {
	m := trainModel(t, 1, 1000)
	s, ts := newIngestServer(t, m, 100)

	// Wrong method → 405 + Allow, like every route.
	resp, err := http.Get(ts.URL + "/v1/ingest")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != "POST" {
		t.Fatalf("GET ingest: status %d Allow %q", resp.StatusCode, resp.Header.Get("Allow"))
	}

	st, err := synth.NewStreamer(synth.Config{Function: 1, Tuples: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rows := drawRows(t, st, 10)

	// Unknown model → 404.
	bad := ingestRequest{Model: "nope", Values: rows[0].vals, Class: rows[0].class}
	if code := postJSON(t, ts.URL+"/v1/ingest", bad, nil); code != 404 {
		t.Fatalf("unknown model status %d, want 404", code)
	}

	// Form errors → 400.
	for name, body := range map[string]string{
		"neither form": `{}`,
		"both forms":   `{"values":["1"],"class":"GroupA","rows":[{"values":["1"],"class":"GroupA"}]}`,
		"no class":     fmt.Sprintf(`{"values":%s}`, mustJSON(t, rows[0].vals)),
	} {
		if code, _ := postRaw(t, ts.URL+"/v1/ingest", body); code != 400 {
			t.Fatalf("%s: status %d, want 400", name, code)
		}
	}

	// Trailing garbage → 400, same contract as predict.
	doc := fmt.Sprintf(`{"values":%s,"class":%q}{"junk":1}`, mustJSON(t, rows[0].vals), rows[0].class)
	if code, _ := postRaw(t, ts.URL+"/v1/ingest", doc); code != 400 {
		t.Fatalf("trailing garbage status %d, want 400", code)
	}

	// Body cap → 413, shared with predict (SetPredictMaxBytes governs both).
	s.SetPredictMaxBytes(1 << 10)
	big := fmt.Sprintf(`{"values":[%q],"class":"x"}`, strings.Repeat("x", 4<<10))
	if code, _ := postRaw(t, ts.URL+"/v1/ingest", big); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body status %d, want 413", code)
	}
	s.SetPredictMaxBytes(0)

	// Row validation → 422 with the offending row's index.
	reqBad := ingestRequest{Rows: []ingestRow{
		{Values: rows[0].vals, Class: rows[0].class},
		{Values: rows[1].vals, Class: "NotAClass"},
	}}
	code, errDoc := postRaw(t, ts.URL+"/v1/ingest", mustJSON(t, reqBad))
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("bad row status %d, want 422", code)
	}
	if !strings.Contains(errDoc["error"], "row 1:") {
		t.Fatalf("422 body %q does not name row 1", errDoc["error"])
	}
	// All-or-nothing: the valid row 0 must not have landed.
	if got := s.ing.Load().windows["default"].Size(); got != 0 {
		t.Fatalf("window holds %d rows after rejected bulk, want 0", got)
	}
	// A non-finite value (salary is attribute 0) is a row error too: in
	// the window it would break every later retrain.
	nanVals := append([]string{"NaN"}, rows[1].vals[1:]...)
	reqNaN := ingestRequest{Rows: []ingestRow{
		{Values: rows[0].vals, Class: rows[0].class},
		{Values: nanVals, Class: rows[1].class},
	}}
	code, errDoc = postRaw(t, ts.URL+"/v1/ingest", mustJSON(t, reqNaN))
	if code != http.StatusUnprocessableEntity || !strings.Contains(errDoc["error"], `row 1: ingest: attribute "salary"`) {
		t.Fatalf("NaN row: status %d body %q, want 422 naming row 1 and salary", code, errDoc["error"])
	}
	if got := s.ing.Load().windows["default"].Size(); got != 0 {
		t.Fatalf("window holds %d rows after rejected NaN bulk, want 0", got)
	}

	// Single-row and bulk happy paths, on both the /v1 and alias paths.
	var single ingestResponse
	if code := postJSON(t, ts.URL+"/v1/ingest",
		ingestRequest{Values: rows[0].vals, Class: rows[0].class}, &single); code != 200 {
		t.Fatalf("single ingest status %d", code)
	}
	if single.Accepted != 1 || single.WindowSize != 1 || single.WindowTotal != 1 {
		t.Fatalf("single ingest = %+v", single)
	}
	bulk := ingestRows(t, ts.URL, rows[1:])
	if bulk.WindowSize != 10 || bulk.WindowTotal != 10 {
		t.Fatalf("bulk ingest = %+v", bulk)
	}
	var alias ingestResponse
	if code := postJSON(t, ts.URL+"/ingest",
		ingestRequest{Values: rows[0].vals, Class: rows[0].class}, &alias); code != 200 {
		t.Fatalf("alias ingest status %d", code)
	}
	if alias.WindowTotal != 11 {
		t.Fatalf("alias ingest = %+v", alias)
	}
}

func mustJSON(t testing.TB, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestIngestWindowEviction(t *testing.T) {
	m := trainModel(t, 1, 1000)
	_, ts := newIngestServer(t, m, 50)
	st, err := synth.NewStreamer(synth.Config{Function: 1, Tuples: 200, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	resp := ingestRows(t, ts.URL, drawRows(t, st, 80))
	if resp.WindowSize != 50 || resp.WindowTotal != 80 {
		t.Fatalf("after 80 rows into a 50-cap window: %+v", resp)
	}
}

// TestOnlineLoopSkipRejectAcceptSwap walks the full online loop: ingest →
// retrain skip (window too small) → tripwire accept (stale serving model
// loses to a window-trained candidate) → swap → tripwire reject (margin
// keeps the now-fresh serving model), with /v1/metrics tracking every
// decision.
func TestOnlineLoopSkipRejectAcceptSwap(t *testing.T) {
	m := trainModel(t, 1, 2000) // serving model learned F1
	s, ts := newIngestServer(t, m, 4000)

	// Cycle 1: empty window → skipped.
	res, err := s.RetrainOnce("default", ingest.RetrainConfig{MinRows: 500})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != ingest.OutcomeSkipped {
		t.Fatalf("empty-window outcome %q, want skipped", res.Outcome)
	}

	// The concept has drifted: live traffic is now F7-labeled.
	st, err := synth.NewStreamer(synth.Config{Function: 7, Tuples: 10000, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		ingestRows(t, ts.URL, drawRows(t, st, 500))
	}

	// Cycle 2: candidate trained on the F7 window beats the stale F1 model.
	res, err = s.RetrainOnce("default", ingest.RetrainConfig{MinRows: 500})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != ingest.OutcomeSwapped {
		t.Fatalf("drifted-window outcome %q (cand %.3f serv %.3f), want swapped",
			res.Outcome, res.CandidateAcc, res.ServingAcc)
	}

	// The swap is visible on /v1/model/{name}: retrain source, bumped swaps.
	var info ModelInfo
	if code := getJSON(t, ts.URL+"/v1/model/default", &info); code != 200 {
		t.Fatalf("model info status %d", code)
	}
	if !strings.Contains(info.Source, "retrain") || info.Swaps != 2 {
		t.Fatalf("post-swap info source %q swaps %d", info.Source, info.Swaps)
	}

	// Cycle 3: the serving model is now window-trained; an impossible
	// margin forces a reject and the model must keep serving.
	res, err = s.RetrainOnce("default", ingest.RetrainConfig{MinRows: 500, Margin: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != ingest.OutcomeRejected {
		t.Fatalf("margin outcome %q, want rejected", res.Outcome)
	}

	// /v1/metrics carries the whole story.
	var met metricsSnapshot
	if code := getJSON(t, ts.URL+"/v1/metrics", &met); code != 200 {
		t.Fatalf("metrics status %d", code)
	}
	ing := met.Ingest
	if ing == nil {
		t.Fatal("metrics has no ingest section")
	}
	if ing.IngestedTotal != 3000 {
		t.Fatalf("ingested_total %d, want 3000", ing.IngestedTotal)
	}
	if ing.RowsPerSec <= 0 {
		t.Fatalf("rows_per_sec %v, want > 0", ing.RowsPerSec)
	}
	r := ing.Retrain
	if r.Cycles != 3 || r.Swaps != 1 || r.Rejects != 1 || r.Skips != 1 {
		t.Fatalf("retrain counters %+v", r)
	}
	if r.LastOutcome != string(ingest.OutcomeRejected) || r.LastCandidateAccuracy <= 0 {
		t.Fatalf("last decision %+v", r)
	}
	w, ok := ing.Windows["default"]
	if !ok || w.Size != 3000 || w.Capacity != 4000 || w.Total != 3000 {
		t.Fatalf("window snapshot %+v ok=%v", w, ok)
	}
}

// TestDriftRecovery is the deterministic end-to-end drift scenario: the
// labeling function flips F1→F7 mid-stream, served accuracy on the
// freshest labeled rows craters, and the retrain loop must recover to
// within 0.02 of the pre-drift accuracy — with the swap firing only when
// the candidate beat the serving model on the window holdout.
func TestDriftRecovery(t *testing.T) {
	m := trainModel(t, 1, 3000)
	s, ts := newIngestServer(t, m, 4000)

	const (
		batch   = 500
		driftAt = 3000
		total   = 12000
		probeN  = 500
		tol     = 0.02
		minRows = 1000
	)
	st, err := synth.NewStreamer(synth.Config{
		Function: 1, DriftFunction: 7, DriftAt: driftAt, Tuples: total, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := ingest.RetrainConfig{MinRows: minRows}

	var recent []labeledRow // the freshest probeN labeled rows
	probe := func() float64 {
		return servedAccuracy(t, ts.URL, recent)
	}

	preDrift, minPost, recovered := 0.0, 1.0, -1
	cycle := 0
	for sent := 0; sent < total; sent += batch {
		rows := drawRows(t, st, batch)
		ingestRows(t, ts.URL, rows)
		recent = append(recent, rows...)
		if len(recent) > probeN {
			recent = recent[len(recent)-probeN:]
		}
		if _, err := s.RetrainOnce("default", cfg); err != nil {
			t.Fatal(err)
		}
		acc := probe()
		if sent+batch == driftAt {
			preDrift = acc
		}
		if sent+batch > driftAt {
			cycle++
			if acc < minPost {
				minPost = acc
			}
			if recovered < 0 && acc >= preDrift-tol {
				recovered = cycle
			}
		}
	}
	t.Logf("pre-drift %.4f, post-drift min %.4f, recovered at cycle %d of %d",
		preDrift, minPost, recovered, cycle)
	if preDrift < 0.9 {
		t.Fatalf("pre-drift accuracy %.4f implausibly low", preDrift)
	}
	if minPost > preDrift-0.1 {
		t.Fatalf("drift should crater accuracy: min %.4f vs pre-drift %.4f", minPost, preDrift)
	}
	if recovered < 0 {
		t.Fatalf("accuracy never recovered to within %.2f of pre-drift %.4f (min %.4f)",
			tol, preDrift, minPost)
	}

	// Every swap the loop made was tripwire-approved; at least one fired
	// after the drift, and no model failure was recorded along the way.
	var met metricsSnapshot
	if code := getJSON(t, ts.URL+"/v1/metrics", &met); code != 200 {
		t.Fatalf("metrics status %d", code)
	}
	if met.Ingest.Retrain.Swaps == 0 {
		t.Fatal("drift recovery without a single model swap")
	}
	if met.Degraded {
		t.Fatal("retrain loop left the server degraded")
	}
}

// postCode posts v as JSON and returns the status code; goroutine-safe
// (no t.Fatal), for the soak workers.
func postCode(url string, v any) (int, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return 0, err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, nil
}

// TestIngestPredictSoak is the `make ingest-soak` workload: open-loop
// concurrent ingest + predict traffic with the periodic retrain loop
// hot-swapping underneath, under -race. Zero 5xx allowed (429 shedding is
// fine; it's the designed overload response).
func TestIngestPredictSoak(t *testing.T) {
	m := trainModel(t, 1, 2000)
	s, ts := newIngestServer(t, m, 3000)
	if err := s.EnableBatching(BatchConfig{}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	stop := s.StartRetrainLoop("default", 100*time.Millisecond, ingest.RetrainConfig{MinRows: 500})
	defer stop()

	deadline := time.Now().Add(1200 * time.Millisecond)
	var server5xx atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ { // ingest workers, drifting traffic
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			st, err := synth.NewStreamer(synth.Config{
				Function: 1, DriftFunction: 7, DriftAt: 2000,
				Tuples: 1 << 20, Seed: int64(100 + g),
			})
			if err != nil {
				t.Error(err)
				return
			}
			for time.Now().Before(deadline) {
				rows := drawRows(t, st, 64)
				req := ingestRequest{Rows: make([]ingestRow, len(rows))}
				for i, r := range rows {
					req.Rows[i] = ingestRow{Values: r.vals, Class: r.class}
				}
				code, err := postCode(ts.URL+"/v1/ingest", req)
				if err != nil {
					t.Error(err)
					return
				}
				if code >= 500 {
					server5xx.Add(1)
				}
			}
		}(g)
	}
	for g := 0; g < 2; g++ { // predict workers
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			st, err := synth.NewStreamer(synth.Config{
				Function: 1, Tuples: 1 << 20, Seed: int64(200 + g),
			})
			if err != nil {
				t.Error(err)
				return
			}
			for time.Now().Before(deadline) {
				rows := drawRows(t, st, 16)
				req := predictRequest{ValuesRows: make([][]string, len(rows))}
				for i, r := range rows {
					req.ValuesRows[i] = r.vals
				}
				code, err := postCode(ts.URL+"/v1/predict", req)
				if err != nil {
					t.Error(err)
					return
				}
				if code >= 500 {
					server5xx.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	if n := server5xx.Load(); n > 0 {
		t.Fatalf("%d 5xx responses during soak", n)
	}
	var met metricsSnapshot
	if code := getJSON(t, ts.URL+"/v1/metrics", &met); code != 200 {
		t.Fatalf("metrics status %d", code)
	}
	if met.Ingest == nil || met.Ingest.IngestedTotal == 0 || met.Ingest.RowsPerSec <= 0 {
		t.Fatalf("soak ingest metrics %+v", met.Ingest)
	}
	if met.Ingest.Retrain.Cycles == 0 {
		t.Fatal("retrain loop never ran during soak")
	}
	t.Logf("soak: %d rows ingested (%.0f rows/s), %d retrain cycles, %d swaps, %d rejects",
		met.Ingest.IngestedTotal, met.Ingest.RowsPerSec,
		met.Ingest.Retrain.Cycles, met.Ingest.Retrain.Swaps, met.Ingest.Retrain.Rejects)
}

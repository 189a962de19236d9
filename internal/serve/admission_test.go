package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// postRaw posts a raw body and returns status + decoded JSON error (if any).
func postRaw(t testing.TB, url, body string) (int, map[string]string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]string
	json.NewDecoder(resp.Body).Decode(&doc)
	return resp.StatusCode, doc
}

// TestPredictBodyCap413 checks the predict route has its own small body
// cap (not the 256 MiB model-upload cap) and maps http.MaxBytesError to
// 413 with the JSON error contract.
func TestPredictBodyCap413(t *testing.T) {
	m := trainModel(t, 1, 1000)
	s, ts := newTestServer(t, m)
	s.SetPredictMaxBytes(1 << 10)

	big := fmt.Sprintf(`{"row":{"pad":%q}}`, strings.Repeat("x", 4<<10))
	code, doc := postRaw(t, ts.URL+"/v1/predict", big)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body status %d, want 413", code)
	}
	if !strings.Contains(doc["error"], "1024") {
		t.Fatalf("413 body %q does not name the cap", doc["error"])
	}
	// Under the cap still works.
	if code := postJSON(t, ts.URL+"/v1/predict", predictRequest{Row: sampleRow("25")}, nil); code != 200 {
		t.Fatalf("small body status %d, want 200", code)
	}
	// Restoring the default widens the cap again.
	s.SetPredictMaxBytes(0)
	if code, _ := postRaw(t, ts.URL+"/v1/predict", big); code == http.StatusRequestEntityTooLarge {
		t.Fatal("default cap rejected a 4 KiB body")
	}
}

// TestTrailingGarbageRejected checks the second-Decode-must-EOF rule on
// both JSON-accepting routes: a concatenated document is 400, trailing
// whitespace is fine.
func TestTrailingGarbageRejected(t *testing.T) {
	m := trainModel(t, 1, 1000)
	_, ts := newTestServer(t, m)

	row, _ := json.Marshal(predictRequest{Row: sampleRow("25")})
	code, doc := postRaw(t, ts.URL+"/v1/predict", string(row)+`{"junk":1}`)
	if code != http.StatusBadRequest || !strings.Contains(doc["error"], "trailing") {
		t.Fatalf("trailing garbage: status %d body %v, want 400 trailing", code, doc)
	}
	if code, _ := postRaw(t, ts.URL+"/v1/predict", string(row)+"\n\t "); code != 200 {
		t.Fatalf("trailing whitespace status %d, want 200", code)
	}

	// Model swap: a valid model document followed by junk must not be
	// half-accepted.
	mb := modelBytes(t, m)
	resp, err := http.Post(ts.URL+"/v1/models/garbage", "application/json",
		bytes.NewReader(append(append([]byte{}, mb...), []byte(`{"junk":1}`)...)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("model swap trailing garbage status %d, want 400", resp.StatusCode)
	}
	if code := getJSON(t, ts.URL+"/v1/model/garbage", nil); code != 404 {
		t.Fatalf("garbage upload registered a model (info status %d, want 404)", code)
	}
	// Trailing whitespace after the model document is accepted.
	resp, err = http.Post(ts.URL+"/v1/models/ok", "application/json",
		bytes.NewReader(append(append([]byte{}, mb...), '\n')))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("model swap trailing newline status %d, want 200", resp.StatusCode)
	}
}

// enableBatching turns admission control on for a test server and turns it
// off at cleanup. It freezes the waiting estimate at 0, so the cap counts
// exactly the requests a test holds in flight, however busy the host is.
func enableBatching(t testing.TB, s *Server, cfg BatchConfig) *admission {
	t.Helper()
	if err := s.EnableBatching(cfg); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return freeze(s.adm.Load())
}

// freeze stops a's sampler, leaving its waiting estimate for the test to set.
func freeze(a *admission) *admission {
	a.nextSample.Store(math.MaxInt64)
	return a
}

// parkAdmitted makes every admitted predict on a announce itself on the
// returned channel and then wait until open is called, so a test can hold
// exactly as many requests in flight as it sends.
func parkAdmitted(a *admission) (entered <-chan struct{}, open func()) {
	in := make(chan struct{}, 64)
	gate := make(chan struct{})
	a.admitted = func() { in <- struct{}{}; <-gate }
	var once sync.Once
	return in, func() { once.Do(func() { close(gate) }) }
}

// TestBatchedPredictMatchesInline drives every request form through the
// admission-controlled path and checks predictions and error attribution
// are identical to calling the model directly.
func TestBatchedPredictMatchesInline(t *testing.T) {
	m := trainModel(t, 1, 2000)
	s, ts := newTestServer(t, m)
	enableBatching(t, s, BatchConfig{})

	// Single row form.
	var single predictResponse
	if code := postJSON(t, ts.URL+"/v1/predict", predictRequest{Row: sampleRow("25")}, &single); code != 200 {
		t.Fatalf("admitted single status %d", code)
	}
	want, err := m.Predict(sampleRow("25"))
	if err != nil {
		t.Fatal(err)
	}
	if single.Prediction != want || single.Rows != 1 {
		t.Fatalf("admitted single = %+v, want %q", single, want)
	}

	// Positional batch form.
	vrows := [][]string{sampleValues(m, "25"), sampleValues(m, "50"), sampleValues(m, "70")}
	var batch predictResponse
	if code := postJSON(t, ts.URL+"/v1/predict", predictRequest{ValuesRows: vrows}, &batch); code != 200 {
		t.Fatalf("admitted values_rows status %d", code)
	}
	if batch.Rows != 3 || len(batch.Predictions) != 3 {
		t.Fatalf("admitted values_rows = %+v", batch)
	}
	for i, vals := range vrows {
		w, err := m.PredictValues(vals)
		if err != nil {
			t.Fatal(err)
		}
		if batch.Predictions[i] != w {
			t.Fatalf("row %d: served %q, direct %q", i, batch.Predictions[i], w)
		}
	}

	// Unknown model is still 404.
	if code := postJSON(t, ts.URL+"/v1/predict", predictRequest{Model: "nope", Row: sampleRow("25")}, nil); code != 404 {
		t.Fatalf("unknown model status %d, want 404", code)
	}

	// Per-row error attribution: a bad value at row 2 fails with "row 2:",
	// with and without the (now inert) no_batch field.
	bad := [][]string{sampleValues(m, "25"), sampleValues(m, "50"), nil}
	bad[2] = append([]string(nil), sampleValues(m, "70")...)
	schema := m.Tree().Schema
	for a := range schema.Attrs {
		if schema.Attrs[a].Name == "car" {
			bad[2][a] = "spaceship"
		}
	}
	for _, noBatch := range []bool{false, true} {
		body, _ := json.Marshal(predictRequest{ValuesRows: bad, NoBatch: noBatch})
		code, doc := postRaw(t, ts.URL+"/v1/predict", string(body))
		if code != 422 {
			t.Fatalf("no_batch=%v bad row status %d, want 422", noBatch, code)
		}
		if !strings.Contains(doc["error"], "row 2:") {
			t.Fatalf("no_batch=%v error %q does not name row 2", noBatch, doc["error"])
		}
	}
}

// reply is one finished HTTP exchange.
type reply struct {
	code int
	body []byte
	err  error
}

// postAsync posts body in the background and delivers the reply on ch.
func postAsync(url string, body []byte, ch chan<- reply) {
	go func() {
		resp, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			ch <- reply{err: err}
			return
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		ch <- reply{code: resp.StatusCode, body: raw, err: err}
	}()
}

// TestQueueFullSheds429 holds QueueDepth predicts in flight with the
// admission hook: the next request must shed with 429, a JSON error body
// and a Retry-After of at least one second, and once released every parked
// request must answer 200 with the predictions PredictValuesBatch gives.
func TestQueueFullSheds429(t *testing.T) {
	m := trainModel(t, 1, 1000)
	s, ts := newTestServer(t, m)
	const depth = 3
	a := enableBatching(t, s, BatchConfig{QueueDepth: depth})
	entered, open := parkAdmitted(a)
	defer open()

	ages := []string{"25", "50", "70"}
	replies := make(chan reply, depth)
	wants := make(map[string]int) // a multiset: two requests may agree
	for i := 0; i < depth; i++ {
		rows := [][]string{sampleValues(m, ages[i]), sampleValues(m, "33")}
		want, err := m.PredictValuesBatch(rows)
		if err != nil {
			t.Fatal(err)
		}
		wants[strings.Join(want, ",")]++
		body, _ := json.Marshal(predictRequest{ValuesRows: rows})
		postAsync(ts.URL+"/v1/predict", body, replies)
		<-entered
	}
	if got := a.inflight.Load(); got != depth {
		t.Fatalf("in flight = %d with %d parked, want %d", got, depth, depth)
	}

	// Request depth+1: the cap is full — shed.
	body, _ := json.Marshal(predictRequest{ValuesRows: [][]string{sampleValues(m, "25")}})
	resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]string
	derr := json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full cap status %d, want 429", resp.StatusCode)
	}
	if derr != nil || doc["error"] == "" {
		t.Fatalf("429 body is not a JSON error (%v, %v)", doc, derr)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 response missing Retry-After header")
	} else if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Fatalf("Retry-After %q is not a positive integer of seconds", ra)
	}
	if s.met.shed.Load() != 1 {
		t.Fatalf("shed counter = %d, want 1", s.met.shed.Load())
	}

	// Release: every parked request completes with its own predictions.
	open()
	for i := 0; i < depth; i++ {
		r := <-replies
		if r.err != nil || r.code != 200 {
			t.Fatalf("parked request: code %d err %v body %s", r.code, r.err, r.body)
		}
		var out predictResponse
		if err := json.Unmarshal(r.body, &out); err != nil {
			t.Fatal(err)
		}
		key := strings.Join(out.Predictions, ",")
		if wants[key] == 0 {
			t.Fatalf("parked request answered %v, not any request's PredictValuesBatch", out.Predictions)
		}
		wants[key]--
	}
	waitFor(t, func() bool { return a.inflight.Load() == 0 })

	// The metrics document carries the shed, the cap and the idle gauge.
	var snap metricsSnapshot
	if code := getJSON(t, ts.URL+"/v1/metrics", &snap); code != 200 {
		t.Fatalf("metrics status %d", code)
	}
	bs := snap.Batching
	if bs == nil {
		t.Fatal("metrics missing batching section")
	}
	if bs.ShedTotal != 1 || bs.QueueCap != depth || bs.QueueDepth != 0 {
		t.Fatalf("batching section = %+v", bs)
	}
}

// TestInflightReturnsToZero checks every exit from the predict handler
// gives its slot back: success, a malformed body, an unknown model, a
// malformed row, an oversized body (refused before admission) and a client
// that hangs up while its request is in flight.
func TestInflightReturnsToZero(t *testing.T) {
	m := trainModel(t, 1, 1000)
	s, ts := newTestServer(t, m)
	s.SetPredictMaxBytes(4 << 10)
	a := enableBatching(t, s, BatchConfig{QueueDepth: 4})
	url := ts.URL + "/v1/predict"

	badRow := sampleRow("25")
	badRow["car"] = "spaceship"
	good, _ := json.Marshal(predictRequest{Row: sampleRow("25")})
	unknown, _ := json.Marshal(predictRequest{Model: "nope", Row: sampleRow("25")})
	malformed, _ := json.Marshal(predictRequest{Row: badRow})
	for _, tc := range []struct {
		name string
		body string
		want int
	}{
		{"ok", string(good), 200},
		{"bad body", `{"row":`, 400},
		{"unknown model", string(unknown), 404},
		{"bad row", string(malformed), 422},
		{"oversized", fmt.Sprintf(`{"row":{"pad":%q}}`, strings.Repeat("x", 8<<10)), 413},
	} {
		if code, _ := postRaw(t, url, tc.body); code != tc.want {
			t.Fatalf("%s: status %d, want %d", tc.name, code, tc.want)
		}
		waitFor(t, func() bool { return a.inflight.Load() == 0 })
	}

	// A client that gives up while its request is parked in flight.
	entered, open := parkAdmitted(a)
	defer open()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "POST", url, bytes.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	<-entered
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("cancelled request did not fail on the client")
	}
	if got := a.inflight.Load(); got != 1 {
		t.Fatalf("in flight = %d while the abandoned request is parked, want 1", got)
	}
	open()
	waitFor(t, func() bool { return a.inflight.Load() == 0 })
}

// waitFor polls cond for up to a second.
func waitFor(t testing.TB, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 1s")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestNoBatchCountsTowardCap checks the no_batch field no longer bypasses
// admission control: with the cap held full, a no_batch request is shed
// like any other.
func TestNoBatchCountsTowardCap(t *testing.T) {
	m := trainModel(t, 1, 1000)
	s, ts := newTestServer(t, m)
	a := enableBatching(t, s, BatchConfig{QueueDepth: 1})
	entered, open := parkAdmitted(a)
	defer open()

	body, _ := json.Marshal(predictRequest{Row: sampleRow("25")})
	replies := make(chan reply, 1)
	postAsync(ts.URL+"/v1/predict", body, replies)
	<-entered

	noBatch, _ := json.Marshal(predictRequest{Row: sampleRow("25"), NoBatch: true})
	if code, _ := postRaw(t, ts.URL+"/v1/predict", string(noBatch)); code != http.StatusTooManyRequests {
		t.Fatalf("no_batch status %d with the cap full, want 429", code)
	}
	open()
	if r := <-replies; r.err != nil || r.code != 200 {
		t.Fatalf("parked request: code %d err %v", r.code, r.err)
	}
}

// TestBatchingMetricsCoalescing checks the batching section of /v1/metrics:
// every request is its own dispatch, so coalesced_rows counts one
// observation of each request's rows, and the knobs of the removed
// coalescing dispatcher are gone from the document.
func TestBatchingMetricsCoalescing(t *testing.T) {
	m := trainModel(t, 1, 2000)
	s, ts := newTestServer(t, m)
	enableBatching(t, s, BatchConfig{QueueDepth: 64})

	const reqs = 8
	var wg sync.WaitGroup
	errc := make(chan error, reqs)
	for i := 0; i < reqs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vrows := [][]string{sampleValues(m, "25"), sampleValues(m, "50")}
			body, _ := json.Marshal(predictRequest{ValuesRows: vrows})
			resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(body))
			if err != nil {
				errc <- err
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != 200 {
				errc <- fmt.Errorf("request %d: status %d", i, resp.StatusCode)
			}
		}(i)
	}
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	var doc struct {
		PredictionsTotal int64                      `json:"predictions_total"`
		Batching         map[string]json.RawMessage `json:"batching"`
	}
	if code := getJSON(t, ts.URL+"/v1/metrics", &doc); code != 200 {
		t.Fatalf("metrics status %d", code)
	}
	var keys []string
	for k := range doc.Batching {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if got := strings.Join(keys, ","); got != "coalesced_rows,queue_cap,queue_depth,shed_total" {
		t.Fatalf("batching keys = %s", got)
	}
	var rows histogramSnapshot
	if err := json.Unmarshal(doc.Batching["coalesced_rows"], &rows); err != nil {
		t.Fatal(err)
	}
	if rows.Count != reqs || rows.Sum != 2*reqs || rows.Mean != 2 {
		t.Fatalf("coalesced_rows = %+v, want %d dispatches of 2 rows", rows, reqs)
	}
	if doc.PredictionsTotal != 2*reqs {
		t.Fatalf("predictions_total = %d, want %d", doc.PredictionsTotal, 2*reqs)
	}
}

// TestBatchedPredictHotSwapRace is the admission-controlled analogue of
// TestHotSwapUnderLoad (run under -race via make race): workers hammer the
// capped predict path with positional batches and map rows while the model
// is continuously hot-swapped. Every request must succeed with a
// prediction valid under one of the two versions.
func TestBatchedPredictHotSwapRace(t *testing.T) {
	mA := trainModel(t, 1, 2000)
	mB := trainModel(t, 7, 2000)
	s, ts := newTestServer(t, mA)
	enableBatching(t, s, BatchConfig{QueueDepth: 512})
	bodyA, bodyB := modelBytes(t, mA), modelBytes(t, mB)

	const workers = 8
	const perWorker = 30
	var wg sync.WaitGroup
	errc := make(chan error, workers+1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWorker; i++ {
				age := strconv.Itoa(20 + rng.Intn(60))
				var req predictRequest
				if i%2 == 0 {
					req.ValuesRows = [][]string{sampleValues(mA, age), sampleValues(mA, "33")}
				} else {
					req.Rows = []map[string]string{sampleRow(age), sampleRow("71")}
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
				for _, p := range out.Predictions {
					if p != "GroupA" && p != "GroupB" {
						errc <- fmt.Errorf("worker %d: impossible class %q", w, p)
						return
					}
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 40; i++ {
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
}

// TestCloseLiftsCapInFlightFinish checks shutdown semantics: EnableBatching
// refuses a second call, Close is idempotent, a request in flight across
// Close still answers 200 and gives its slot back, and later predicts run
// uncapped with no batching section on /v1/metrics.
func TestCloseLiftsCapInFlightFinish(t *testing.T) {
	m := trainModel(t, 1, 1000)
	s, ts := newTestServer(t, m)
	if err := s.EnableBatching(BatchConfig{QueueDepth: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.EnableBatching(BatchConfig{}); err == nil {
		t.Fatal("double EnableBatching did not error")
	}
	a := freeze(s.adm.Load())
	entered, open := parkAdmitted(a)
	defer open()
	body, _ := json.Marshal(predictRequest{Row: sampleRow("25")})
	replies := make(chan reply, 1)
	postAsync(ts.URL+"/v1/predict", body, replies)
	<-entered

	s.Close()
	s.Close() // idempotent
	// The cap of 1 is held by the parked request, yet this one is admitted:
	// the cap is gone.
	if code := postJSON(t, ts.URL+"/v1/predict", predictRequest{Row: sampleRow("25")}, nil); code != 200 {
		t.Fatalf("predict after Close status %d, want 200", code)
	}
	open()
	if r := <-replies; r.err != nil || r.code != 200 {
		t.Fatalf("request in flight across Close: code %d err %v", r.code, r.err)
	}
	waitFor(t, func() bool { return a.inflight.Load() == 0 })
	var snap metricsSnapshot
	if code := getJSON(t, ts.URL+"/v1/metrics", &snap); code != 200 {
		t.Fatalf("metrics status %d", code)
	}
	if snap.Batching != nil {
		t.Fatal("batching section still present after Close")
	}
}

// TestStalledBodyHoldsNoSlot checks a slot is taken only once the body is
// read: with a cap of 1, a client that sends its headers and part of its
// body and then stalls does not keep another client's predict from running.
func TestStalledBodyHoldsNoSlot(t *testing.T) {
	m := trainModel(t, 1, 1000)
	s, ts := newTestServer(t, m)
	a := enableBatching(t, s, BatchConfig{QueueDepth: 1})

	conn, err := net.Dial("tcp", strings.TrimPrefix(ts.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST /v1/predict HTTP/1.1\r\nHost: test\r\n"+
		"Content-Type: application/json\r\nContent-Length: 1000\r\n\r\n{\"row\":")
	// The route counts the request on entry, before it reads the body.
	waitFor(t, func() bool { return s.met.predict.requests.Load() == 1 })

	if code := postJSON(t, ts.URL+"/v1/predict", predictRequest{Row: sampleRow("25")}, nil); code != 200 {
		t.Fatalf("predict beside a stalled upload: status %d, want 200", code)
	}
	if got := a.inflight.Load(); got != 0 {
		t.Fatalf("in flight = %d with only a stalled upload open, want 0", got)
	}
}

// TestWaitingCountsTowardCap checks the cap counts the predicts estimated
// to be waiting for a CPU as well as those in flight: with nothing in
// flight, an estimate at the cap sheds with a Retry-After that covers the
// backlog, and one below it admits.
func TestWaitingCountsTowardCap(t *testing.T) {
	m := trainModel(t, 1, 1000)
	s, ts := newTestServer(t, m)
	a := enableBatching(t, s, BatchConfig{QueueDepth: 4})
	observeMeanLatency(s, 1_000_000) // 1s per predict per core

	a.waiting.Store(4)
	body, _ := json.Marshal(predictRequest{Row: sampleRow("25")})
	resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d with 4 waiting at a cap of 4, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "4" {
		t.Fatalf("Retry-After = %q, want \"4\" (4 waiting × 1s)", got)
	}
	if got := a.inflight.Load(); got != 0 {
		t.Fatalf("in flight = %d after a shed, want 0", got)
	}

	a.waiting.Store(3)
	if code, _ := postRaw(t, ts.URL+"/v1/predict", string(body)); code != 200 {
		t.Fatalf("status %d with 3 waiting at a cap of 4, want 200", code)
	}
}

// TestWaitingForLittlesLaw pins the estimator on a synthetic window:
// arrivals × the window's mean scheduling latency ÷ its length.
func TestWaitingForLittlesLaw(t *testing.T) {
	edges := []float64{math.Inf(-1), 0, 1e-6, 1e-3, 1e-2, math.Inf(1)}
	prev := []uint64{0, 7, 0, 3, 1}
	window := int64(100 * time.Millisecond)
	for _, tc := range []struct {
		name     string
		cur      []uint64
		arrivals int64
		want     int64
	}{
		// Every wait in [1 ms, 10 ms): a mean of 5.5 ms, so 1000
		// arrivals in 100 ms leave 55 waiting.
		{"mean wait", []uint64{0, 7, 0, 13, 1}, 1000, 55},
		// 90 handoffs under 1 µs dilute the mean tenfold: 5.5, rounded to 6.
		{"handoffs", []uint64{0, 97, 0, 13, 1}, 1000, 6},
		// The unbounded last bucket counts at its lower edge, 10 ms.
		{"open last bucket", []uint64{0, 7, 0, 3, 11}, 1000, 100},
		{"no scheduling events", []uint64{0, 7, 0, 3, 1}, 1000, 0},
		{"no arrivals", []uint64{0, 7, 0, 13, 1}, 0, 0},
		// The first bucket, (-Inf, 0), counts as no wait.
		{"first bucket", []uint64{10, 7, 0, 3, 1}, 1000, 0},
	} {
		if got := waitingFor(edges, prev, tc.cur, tc.arrivals, window); got != tc.want {
			t.Errorf("%s: waitingFor = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestSchedulerBacklogRaisesWaiting runs the sampler against the real
// runtime: four goroutines per GOMAXPROCS each run 1 ms slices of CPU work
// and yield, the way inline handlers queue under overload, so a runnable
// goroutine waits about 3 ms and the window's arrivals are estimated to be
// waiting. (The runtime times one in eight of a goroutine's waits, so the
// slices are short enough to give the histogram many samples.)
func TestSchedulerBacklogRaisesWaiting(t *testing.T) {
	a := newAdmission(newMetrics(), 1)
	t0 := time.Now().UnixNano()
	a.refresh(t0) // the baseline sample

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4*runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for t := time.Now(); time.Since(t) < time.Millisecond; {
				}
				runtime.Gosched()
			}
		}()
	}
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()

	const arrivals = 100_000
	a.arrivals.Add(arrivals)
	t1 := time.Now().UnixNano()
	a.refresh(t1)
	// A mean wait of at least half a millisecond over the window.
	if floor := arrivals * int64(time.Millisecond/2) / (t1 - t0); a.waiting.Load() < floor {
		t.Fatalf("waiting = %d after a saturated %v window, want ≥ %d",
			a.waiting.Load(), time.Duration(t1-t0), floor)
	}
	if next := a.nextSample.Load(); next != t1+sampleEvery {
		t.Fatalf("next sample at %d, want %d", next, t1+sampleEvery)
	}
}

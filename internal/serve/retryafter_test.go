package serve

// Regression tests for the Retry-After backpressure hint. A constant hint
// invites every shed client to retry into a server that is still full
// under sustained overload. The hint must scale with the backlog in flight
// at shed time.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"runtime"
	"testing"
)

// observeMeanLatency makes the server's mean predict latency exactly us
// µs for every GOMAXPROCS worker, so the drain estimate is a whole number
// of seconds that does not depend on the host's core count.
func observeMeanLatency(s *Server, us int64) {
	s.met.latencyUS.observe(us * int64(runtime.GOMAXPROCS(0)))
}

// TestRetryAfterScalesWithQueueDepth parks QueueDepth predicts in flight
// and asserts the shed response's Retry-After covers draining all of them,
// and that a shallower backlog gets a shorter hint.
func TestRetryAfterScalesWithQueueDepth(t *testing.T) {
	m := trainModel(t, 1, 2000)
	s, ts := newTestServer(t, m)
	a := enableBatching(t, s, BatchConfig{QueueDepth: 8})
	observeMeanLatency(s, 2_000_000) // 2s per predict per core
	entered, open := parkAdmitted(a)
	defer open()

	body, err := json.Marshal(map[string]any{"row": sampleRow("25")})
	if err != nil {
		t.Fatal(err)
	}
	replies := make(chan reply, 8)
	for i := 0; i < 8; i++ {
		postAsync(ts.URL+"/v1/predict", body, replies)
		<-entered
	}

	resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	// 8 in flight × 2s each = 16s. A constant hint would answer the same
	// for one request in flight as for eight.
	if got := resp.Header.Get("Retry-After"); got != "16" {
		t.Fatalf("Retry-After = %q, want \"16\" (8 in flight × 2s)", got)
	}
	if got := a.retryAfter(1); got != "2" {
		t.Fatalf("Retry-After with 1 in flight = %q, want \"2\"", got)
	}
	open()
	for i := 0; i < 8; i++ {
		if r := <-replies; r.err != nil || r.code != 200 {
			t.Fatalf("parked request: code %d err %v", r.code, r.err)
		}
	}
}

// TestRetryAfterFloorAndCap pins the RFC 9110 whole-second floor and the
// sanity cap on pathological latency samples.
func TestRetryAfterFloorAndCap(t *testing.T) {
	m := trainModel(t, 1, 2000)
	s := New("")
	if _, err := s.Load("default", m, "test"); err != nil {
		t.Fatal(err)
	}
	a := enableBatching(t, s, BatchConfig{QueueDepth: 4})
	// No latency sample yet, and then a sub-millisecond one: the hint still
	// tells clients a full second, the smallest honest Retry-After.
	if got := a.retryAfter(4); got != "1" {
		t.Fatalf("floor without samples: Retry-After = %q, want \"1\"", got)
	}
	observeMeanLatency(s, 200)
	if got := a.retryAfter(4); got != "1" {
		t.Fatalf("floor: Retry-After = %q, want \"1\"", got)
	}

	s2 := New("")
	if _, err := s2.Load("default", m, "test"); err != nil {
		t.Fatal(err)
	}
	a2 := enableBatching(t, s2, BatchConfig{QueueDepth: 4})
	// A 2-minute mean latency estimates a 120s drain even for one request
	// in flight; the cap keeps the hint at a minute.
	observeMeanLatency(s2, 120_000_000)
	if got := a2.retryAfter(1); got != "60" {
		t.Fatalf("cap: Retry-After = %q, want \"60\"", got)
	}
}

package loadtest

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// fakeNode is a minimal model server: schema on GET /v1/model/, and a
// configurable /v1/predict.
func fakeNode(t testing.TB, predict http.HandlerFunc) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var hits atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/model/", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{
			"classes": []string{"Group A", "Group B"},
			"attrs":   []map[string]any{{"name": "x", "kind": "continuous"}},
		})
	})
	mux.HandleFunc("/v1/predict", func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		predict(w, r)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts, &hits
}

// ok200 answers every predict with one prediction.
func ok200(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"prediction": "Group A"})
}

// TestFleetRespectsRetryAfterBackoff: one node sheds every request with a
// long Retry-After; the router must take the hint and keep the rest of
// the run on the healthy node instead of feeding the full queue.
func TestFleetRespectsRetryAfterBackoff(t *testing.T) {
	shedder, shedHits := fakeNode(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "30")
		w.WriteHeader(http.StatusTooManyRequests)
	})
	healthy, okHits := fakeNode(t, ok200)

	res, err := Run(Config{
		BaseURLs:    []string{shedder.URL, healthy.URL},
		Concurrency: 2,
		Requests:    50,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK+res.Shed != 50 || res.Errors != 0 {
		t.Fatalf("ok=%d shed=%d errors=%d, want 50 total and no errors", res.OK, res.Shed, res.Errors)
	}
	// Concurrency 2: at most 2 requests can be in flight when the first
	// 429 lands, so the shedding node sees a handful at the very start and
	// nothing after the 30s backoff is installed.
	if got := shedHits.Load(); got > 4 {
		t.Fatalf("shedding node got %d requests: Retry-After backoff not honored", got)
	}
	if okHits.Load() < 46 {
		t.Fatalf("healthy node served only %d of 50", okHits.Load())
	}
	if len(res.PerNode) != 2 {
		t.Fatalf("PerNode has %d entries", len(res.PerNode))
	}
	for _, pn := range res.PerNode {
		if pn.URL == shedder.URL && pn.Backoff == 0 {
			t.Fatal("shedding node recorded no backoff installs")
		}
	}
}

// TestFleetFailsOverDeadNode: a closed listener must cost retries, not
// errors — every request lands on the live node.
func TestFleetFailsOverDeadNode(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close() // connection refused from here on
	healthy, okHits := fakeNode(t, ok200)

	res, err := Run(Config{
		BaseURLs:    []string{deadURL, healthy.URL},
		Concurrency: 2,
		Requests:    40,
		Seed:        2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK != 40 || res.Errors != 0 {
		t.Fatalf("ok=%d errors=%d, want all 40 ok", res.OK, res.Errors)
	}
	if res.Retries == 0 {
		t.Fatal("no retries recorded: the dead node was never probed, routing is not spreading")
	}
	if okHits.Load() != 40 {
		t.Fatalf("healthy node served %d of 40", okHits.Load())
	}
}

// TestFleet5xxCounted: server errors on admitted requests must surface in
// FiveXX — the zero-5xx acceptance gate `make cluster-soak` enforces.
func TestFleet5xxCounted(t *testing.T) {
	broken, _ := fakeNode(t, func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	})
	res, err := Run(Config{
		BaseURLs:    []string{broken.URL},
		Concurrency: 1,
		Requests:    5,
		Seed:        3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FiveXX != 5 || res.Errors != 5 {
		t.Fatalf("fivexx=%d errors=%d, want 5/5", res.FiveXX, res.Errors)
	}
}

// TestPickConsistentAndProbing pins the router invariants: a key maps to
// a stable node while the fleet is healthy, probes past unavailable
// nodes, and falls back to the home node when everyone is out.
func TestPickConsistentAndProbing(t *testing.T) {
	r := newFleetRouter([]string{"http://a", "http://b", "http://c"})
	for key := uint64(0); key < 64; key++ {
		first := r.pick(key)
		for i := 0; i < 8; i++ {
			if got := r.pick(key); got != first {
				t.Fatalf("key %d moved from %s to %s with all nodes healthy", key, first.url, got.url)
			}
		}
	}
	// Spread: 64 keys over 3 nodes should not all land on one.
	counts := map[string]int{}
	for key := uint64(0); key < 64; key++ {
		counts[r.pick(key).url]++
	}
	for url, c := range counts {
		if c == 0 || c == 64 {
			t.Fatalf("degenerate spread: %s got %d of 64", url, c)
		}
	}

	home := r.pick(7)
	home.downUntil.Store(time.Now().Add(time.Hour).UnixNano())
	if got := r.pick(7); got == home {
		t.Fatal("pick returned a down node with live alternatives")
	}
	for _, fn := range r.nodes {
		fn.backoffUntil.Store(time.Now().Add(time.Hour).UnixNano())
	}
	if got := r.pick(7); got != home {
		t.Fatalf("all-down fallback picked %s, want home %s", got.url, home.url)
	}
}

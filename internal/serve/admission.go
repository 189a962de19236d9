package serve

// Predict admission control. Every /v1/predict runs inline on its own
// handler goroutine against the one model snapshot it reads, so no request
// waits for another to arrive. Overload is bounded by a cap on the predict
// backlog: the predicts in flight plus an estimate of those waiting for a
// CPU. Inline handlers finish in well under a millisecond once they run,
// so under CPU overload the queue is goroutines the runtime has made
// runnable and not yet run, which no counter sees; Little's law estimates
// them from the predict arrival rate and the runtime's mean scheduling
// latency. A request arriving at the cap is shed with 429 + Retry-After.

import (
	"fmt"
	"math"
	"net/http"
	"runtime"
	rtmetrics "runtime/metrics"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// BatchConfig configures predict admission control (Server.EnableBatching).
// The name is kept from when the server coalesced requests into batches;
// every predict now runs inline, and the config sets only the cap.
type BatchConfig struct {
	// QueueDepth caps the predict backlog (in flight plus waiting for a
	// CPU); a request arriving at the cap is shed with 429 + Retry-After.
	QueueDepth int
}

// DefaultBatchQueueDepth is the backlog cap used when QueueDepth is zero.
const DefaultBatchQueueDepth = 256

// sampleEvery is how often the waiting estimate is refreshed: often enough
// to react within a few requests' latency under overload, rarely enough
// that reading the runtime's histogram costs nothing per request.
const sampleEvery = int64(10 * time.Millisecond)

// admission is the backlog cap on predicts.
type admission struct {
	met      *metrics
	cap      int64
	inflight atomic.Int64
	// waiting is the Little's-law estimate of predicts waiting for a CPU,
	// refreshed by whichever arrival first finds nextSample (unix ns)
	// passed. Tests freeze it by storing math.MaxInt64 in nextSample.
	waiting    atomic.Int64
	nextSample atomic.Int64
	arrivals   atomic.Int64
	// mu guards the sampler's state below.
	mu           sync.Mutex
	sched        [1]rtmetrics.Sample
	prev         []uint64
	prevArrivals int64
	prevAt       int64
	// admitted, when non-nil (tests only), runs on every admitted predict
	// before it decodes its body or reads the model; tests park requests
	// in it to hold the cap full deterministically.
	admitted func()
}

// EnableBatching turns on admission control for /v1/predict: the backlog
// of predicts is capped at cfg.QueueDepth (zero means
// DefaultBatchQueueDepth), "no_batch" requests included, and the rest are
// shed with 429. Call once, before serving; Close turns it off again.
func (s *Server) EnableBatching(cfg BatchConfig) error {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultBatchQueueDepth
	}
	if !s.adm.CompareAndSwap(nil, newAdmission(s.met, int64(cfg.QueueDepth))) {
		return fmt.Errorf("serve: batching already enabled")
	}
	return nil
}

// newAdmission returns an empty cap of size cap whose sampler reads the
// runtime's scheduling-latency histogram.
func newAdmission(met *metrics, cap int64) *admission {
	a := &admission{met: met, cap: cap}
	a.sched[0].Name = "/sched/latencies:seconds"
	return a
}

// Close turns admission control off: predicts already in flight finish
// normally, and later ones run uncapped. A server without admission
// control has nothing to stop.
func (s *Server) Close() { s.adm.Store(nil) }

// admit reserves an in-flight slot for a predict whose body has been read,
// or sheds it with 429 and reports false. A nil admission admits
// everything. Every true return must be paired with one release.
func (a *admission) admit(w http.ResponseWriter, rs *routeStats) bool {
	if a == nil {
		return true
	}
	a.arrivals.Add(1)
	a.refresh(time.Now().UnixNano())
	n := a.inflight.Add(1)
	if backlog := n + a.waiting.Load(); backlog > a.cap {
		a.inflight.Add(-1)
		a.met.shed.Add(1)
		w.Header().Set("Retry-After", a.retryAfter(backlog-1))
		writeErr(w, rs, http.StatusTooManyRequests, "too many predictions queued, retry later")
		return false
	}
	if a.admitted != nil {
		a.admitted()
	}
	return true
}

// release frees the slot admit reserved.
func (a *admission) release() {
	if a != nil {
		a.inflight.Add(-1)
	}
}

// refresh re-estimates waiting once per sampleEvery. One arrival samples;
// the others, and every arrival in between, read the last estimate.
func (a *admission) refresh(now int64) {
	if now < a.nextSample.Load() || !a.mu.TryLock() {
		return
	}
	defer a.mu.Unlock()
	if now < a.nextSample.Load() {
		return // sampled while this caller raced for the lock
	}
	a.nextSample.Store(now + sampleEvery)
	rtmetrics.Read(a.sched[:])
	h := a.sched[0].Value.Float64Histogram()
	arrivals := a.arrivals.Load()
	if a.prev != nil {
		a.waiting.Store(waitingFor(h.Buckets, a.prev, h.Counts, arrivals-a.prevArrivals, now-a.prevAt))
	}
	a.prev = append(a.prev[:0], h.Counts...)
	a.prevArrivals, a.prevAt = arrivals, now
}

// waitingFor applies Little's law to one sampling window of windowNS in
// which arrivals predicts came in and the runtime's scheduling-latency
// histogram (bucket edges in seconds) went from prev to cur: predicts
// arriving at arrivals/windowNS that each wait the window's mean
// scheduling latency W number arrivals × W / windowNS at any moment. W
// takes each bucket at its midpoint, and the unbounded last bucket at its
// lower edge.
func waitingFor(buckets []float64, prev, cur []uint64, arrivals, windowNS int64) int64 {
	var events, sum float64
	for i := range cur {
		lo, hi := max(buckets[i], 0), buckets[i+1] // the first lower edge is -Inf
		if math.IsInf(hi, 1) {
			hi = lo
		}
		n := float64(cur[i] - prev[i])
		events += n
		sum += n * (lo + hi) / 2
	}
	if events == 0 || arrivals <= 0 || windowNS <= 0 {
		return 0
	}
	return int64(math.Round(float64(arrivals) * sum / events * 1e9 / float64(windowNS)))
}

// maxRetryAfterSecs caps the Retry-After hint: past a minute the estimate
// says more about a pathological latency sample than about when the server
// will have room.
const maxRetryAfterSecs = 60

// retryAfter is the Retry-After header value for a request shed with a
// backlog of predicts ahead of it: the time to drain them, estimated as
// backlog × the mean predict latency ÷ GOMAXPROCS, rounded up to a whole
// second per RFC 9110, floored at 1s and capped at maxRetryAfterSecs.
// A hint that scales with the backlog keeps shed clients from retrying
// into a server that is still full.
func (a *admission) retryAfter(backlog int64) string {
	var meanUS int64
	if n := a.met.latencyUS.count.Load(); n > 0 {
		meanUS = a.met.latencyUS.sum.Load() / n
	}
	drainUS := backlog * meanUS / int64(runtime.GOMAXPROCS(0))
	secs := min(max((drainUS+999_999)/1_000_000, 1), maxRetryAfterSecs)
	return strconv.FormatInt(secs, 10)
}

package serve

import (
	"sync"
	"sync/atomic"
	"time"
)

// Serving metrics are expvar-style: plain atomics bumped on the hot path
// with no locks, snapshotted into a JSON document by GET /metrics. The
// predict latency and batch-size distributions use fixed-bound cumulative
// histograms so percentiles can be estimated without retaining samples.

// latencyBoundsUS are the predict-latency bucket upper bounds (µs); a
// final implicit +Inf bucket catches the tail.
var latencyBoundsUS = []int64{50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000, 100000}

// batchBounds are the rows-per-predict-request bucket upper bounds.
var batchBounds = []int64{1, 8, 32, 128, 512, 2048}

// histogram is a fixed-bucket histogram with atomic counters.
type histogram struct {
	bounds  []int64
	buckets []atomic.Int64 // len(bounds)+1; last is +Inf
	count   atomic.Int64
	sum     atomic.Int64
}

func newHistogram(bounds []int64) *histogram {
	return &histogram{bounds: bounds, buckets: make([]atomic.Int64, len(bounds)+1)}
}

// observe records one value.
func (h *histogram) observe(v int64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// histogramSnapshot is the JSON form of a histogram; Buckets[i] counts
// observations ≤ Bounds[i], the last entry counting the +Inf tail.
type histogramSnapshot struct {
	Count   int64   `json:"count"`
	Sum     int64   `json:"sum"`
	Mean    float64 `json:"mean"`
	Bounds  []int64 `json:"bounds"`
	Buckets []int64 `json:"buckets"`
}

func (h *histogram) snapshot() histogramSnapshot {
	s := histogramSnapshot{
		Count:   h.count.Load(),
		Sum:     h.sum.Load(),
		Bounds:  h.bounds,
		Buckets: make([]int64, len(h.buckets)),
	}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	if s.Count > 0 {
		s.Mean = float64(s.Sum) / float64(s.Count)
	}
	return s
}

// routeStats counts requests and error responses for one route.
type routeStats struct {
	requests atomic.Int64
	errors   atomic.Int64
}

// metrics aggregates the server's counters.
type metrics struct {
	start                                            time.Time
	predict, ingest, swap, info, list, health, stats routeStats
	latencyUS                                        *histogram
	batchRows                                        *histogram
	predictions                                      atomic.Int64 // rows classified, all models
	shed                                             atomic.Int64 // predicts rejected 429 by admission control
}

func newMetrics() *metrics {
	return &metrics{
		start:     time.Now(),
		latencyUS: newHistogram(latencyBoundsUS),
		batchRows: newHistogram(batchBounds),
	}
}

// routeSnapshot is one route's JSON form.
type routeSnapshot struct {
	Requests int64 `json:"requests"`
	Errors   int64 `json:"errors"`
}

func (r *routeStats) snapshot() routeSnapshot {
	return routeSnapshot{Requests: r.requests.Load(), Errors: r.errors.Load()}
}

// rateWindowSecs is the trailing span the ingest rows/s gauge averages
// over (including the in-progress second, so the gauge responds
// immediately in short tests and soaks).
const rateWindowSecs = 10

// rateMeter tracks a per-second event rate with a small ring of one-second
// buckets indexed by wall second modulo the ring size. Each bucket carries
// the absolute second it was written for, and rate sums only buckets whose
// second falls inside the trailing window — a bucket that wrapped around
// from an earlier lap of the ring is stale and must never be replayed into
// the rate, no matter where the ring pointer sits after a silence. A mutex
// is fine here: ingest requests are row batches, so the meter is touched
// once per request, not per row.
type rateMeter struct {
	// now returns the current wall second; tests inject a fake clock here
	// to pin the wraparound behavior deterministically. Nil means real time.
	now func() int64

	mu     sync.Mutex
	secs   [rateWindowSecs + 2]int64
	counts [rateWindowSecs + 2]int64
}

// wallSec is the meter's current second.
func (m *rateMeter) wallSec() int64 {
	if m.now != nil {
		return m.now()
	}
	return time.Now().Unix()
}

// add records n events now.
func (m *rateMeter) add(n int64) {
	now := m.wallSec()
	i := now % int64(len(m.secs))
	m.mu.Lock()
	if m.secs[i] != now {
		m.secs[i] = now
		m.counts[i] = 0
	}
	m.counts[i] += n
	m.mu.Unlock()
}

// rate averages events/s over the trailing rateWindowSecs seconds,
// clamped to the meter's uptime so a fresh meter is not under-read. After
// a silence longer than the window every bucket's second is stale, so the
// rate reads exactly 0.
func (m *rateMeter) rate(uptime time.Duration) float64 {
	now := m.wallSec()
	var sum int64
	m.mu.Lock()
	for i := range m.secs {
		if age := now - m.secs[i]; age >= 0 && age < rateWindowSecs {
			sum += m.counts[i]
		}
	}
	m.mu.Unlock()
	span := uptime.Seconds()
	if span > rateWindowSecs {
		span = rateWindowSecs
	}
	if span < 1 {
		span = 1
	}
	return float64(sum) / span
}

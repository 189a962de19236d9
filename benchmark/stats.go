package main

import (
	"math"
	"sort"
)

// series is a set of repeated measurements of one quantity.
type series []float64

func (s series) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

// quantile interpolates linearly between order statistics (the "inclusive"
// method); q in [0,1]. An empty series yields 0.
func (s series) quantile(q float64) float64 {
	v := s.sorted()
	if len(v) == 0 {
		return 0
	}
	pos := q * float64(len(v)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return v[lo] + (v[hi]-v[lo])*(pos-float64(lo))
}

func (s series) median() float64 { return s.quantile(0.5) }

// pct is the nearest-rank percentile: the smallest sample with at least p
// of the samples at or below it. With fewer than 1/(1-p) samples it is the
// maximum.
func (s series) pct(p float64) float64 {
	v := s.sorted()
	if len(v) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(v)))) - 1
	if i < 0 {
		i = 0
	}
	return v[i]
}

func (s series) sum() float64 {
	t := 0.0
	for _, x := range s {
		t += x
	}
	return t
}

// value is one reported metric: the median of its series with quartiles and
// the sample count, so a reader can judge the spread.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
}

// summarize reports the median of s.
func summarize(s series) value {
	return value{Value: s.median(), N: len(s), Q1: s.quantile(0.25), Q3: s.quantile(0.75)}
}

// scalar reports a single measurement (a count, or a value derived from
// other medians).
func scalar(x float64) value { return value{Value: x, N: 1, Q1: x, Q3: x} }

// segments is how many equal parts a request-style window is cut into; its
// metrics are medians over them, so a stall inside one segment does not
// move them.
const segments = 5

// window is what a request-style window measured: every latency in ms and,
// per segment, the mean and p99 latency and the rows answered per second.
type window struct {
	all                 series
	mean, p99, rowsPerS series
}

// addSegment folds in one segment: its latencies, the rows they answered
// and how long it lasted.
func (w *window) addSegment(ms series, rows int, seconds float64) {
	w.all = append(w.all, ms...)
	if len(ms) > 0 {
		w.mean = append(w.mean, ms.sum()/float64(len(ms)))
		w.p99 = append(w.p99, ms.pct(0.99))
	}
	w.rowsPerS = append(w.rowsPerS, float64(rows)/seconds)
}

// setLatency sets the two end-to-end latency metrics from the segments.
func (w *window) setLatency(r *result) {
	r.set("op_ms", summarize(w.mean))
	r.set("op_tail_ms", summarize(w.p99))
}

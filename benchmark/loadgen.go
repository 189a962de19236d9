package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// The benchmark's own load driver. Bodies are generated before timing; each
// connection is one goroutine with its own keep-alive transport, its own
// sample slice and its own span lane, so the timed path shares nothing.

// body is one pre-generated request with the reply it must get.
type body struct {
	raw  []byte
	rows int
	// want is the in-process prediction for the same rows (predict bodies).
	want []string
}

// reply mirrors the fields of the predict and ingest responses that the
// driver checks.
type reply struct {
	Prediction  string   `json:"prediction"`
	Predictions []string `json:"predictions"`
	Accepted    int      `json:"accepted"`
}

// sample is one answered request.
type sample struct {
	at  time.Duration // when it was due (open loop) or sent, from the phase start
	lat time.Duration
	ok  bool // answered 200 and, where checked, with the right content
}

// connStats is what one connection did in one phase.
type connStats struct {
	name                                       string
	rowsPerReq                                 int
	attempted, ok, refused, failed, mismatched int
	samples                                    []sample
	elapsed                                    time.Duration // phase start to the last reply
	late                                       series        // open loop: how late each request was sent, µs
}

// conn is one keep-alive connection.
type conn struct {
	client *http.Client
	url    string
	bodies []body
	// checkEvery: every n-th reply is decoded and compared with the body's
	// expected content (1 checks all).
	checkEvery int
	span       string
	buf        bytes.Buffer
}

func newConn(url, span string, bodies []body, checkEvery int) *conn {
	return &conn{
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}},
		url: url, bodies: bodies, checkEvery: checkEvery, span: span,
	}
}

func (c *conn) close() { c.client.CloseIdleConnections() }

// do sends body k and classifies the reply into st.
func (c *conn) do(k int, st *connStats) bool {
	b := &c.bodies[k%len(c.bodies)]
	st.attempted++
	resp, err := c.client.Post(c.url, "application/json", bytes.NewReader(b.raw))
	if err != nil {
		st.failed++
		return false
	}
	c.buf.Reset()
	_, err = io.Copy(&c.buf, resp.Body)
	resp.Body.Close()
	switch {
	case err != nil:
		st.failed++
		return false
	case resp.StatusCode == http.StatusTooManyRequests:
		st.refused++
		return false
	case resp.StatusCode != http.StatusOK:
		st.failed++
		return false
	}
	if k%c.checkEvery == 0 && !b.matches(c.buf.Bytes()) {
		st.mismatched++
		return false
	}
	st.ok++
	return true
}

// matches reports whether a 200 reply carries what the body must get: the
// in-process predictions for a predict body, accepted == rows for ingest.
func (b *body) matches(raw []byte) bool {
	var r reply
	if err := json.Unmarshal(raw, &r); err != nil {
		return false
	}
	switch {
	case b.want == nil:
		return r.Accepted == b.rows
	case len(b.want) == 1 && r.Prediction != "":
		return r.Prediction == b.want[0]
	default:
		return equalStrings(r.Predictions, b.want)
	}
}

// closedLoop sends the next request when the previous reply has arrived,
// until the duration has passed.
func (c *conn) closedLoop(d time.Duration, l *lane, parent int64) *connStats {
	st := &connStats{name: c.span, rowsPerReq: c.bodies[0].rows}
	start := time.Now()
	for k := 0; ; k++ {
		t0 := time.Now()
		if t0.Sub(start) >= d {
			st.elapsed = t0.Sub(start)
			return st
		}
		ok := c.do(k, st)
		t1 := time.Now()
		l.add(parent, c.span, t0, t1)
		st.samples = append(st.samples, sample{t0.Sub(start), t1.Sub(t0), ok})
	}
}

// openLoop sends request k at start + k·interval whatever happened to the
// ones before, and times each from when it was due: a stall is charged to
// every request it delays.
func (c *conn) openLoop(d, interval time.Duration, l *lane, parent int64) *connStats {
	st := &connStats{name: c.span, rowsPerReq: c.bodies[0].rows}
	start := time.Now()
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * interval)
		if due.Sub(start) >= d {
			st.elapsed = time.Since(start)
			return st
		}
		time.Sleep(time.Until(due))
		sent := time.Now()
		ok := c.do(k, st)
		t1 := time.Now()
		l.add(parent, c.span, sent, t1)
		st.late = append(st.late, float64(sent.Sub(due).Microseconds()))
		st.samples = append(st.samples, sample{due.Sub(start), t1.Sub(due), ok})
	}
}

// latencies returns the latencies of the answered requests in ms.
func (st *connStats) latencies() series {
	var s series
	for _, x := range st.samples {
		if x.ok {
			s = append(s, x.lat.Seconds()*1e3)
		}
	}
	return s
}

// window cuts the phase of length d into segments.
func (st *connStats) window(d time.Duration) *window {
	seg := d / segments
	win := &window{}
	for s := 0; s < segments; s++ {
		var ms series
		for _, x := range st.samples {
			if x.ok && x.at >= time.Duration(s)*seg && x.at < time.Duration(s+1)*seg {
				ms = append(ms, x.lat.Seconds()*1e3)
			}
		}
		win.addSegment(ms, len(ms)*st.rowsPerReq, seg.Seconds())
	}
	return win
}

// print reports the phase's counts.
func (st *connStats) print(phase string) {
	fmt.Printf("# %-8s %-16s attempted=%d ok=%d refused=%d failed=%d mismatched=%d\n",
		phase, st.name, st.attempted, st.ok, st.refused, st.failed, st.mismatched)
}

// merge folds b's samples and counts into a copy of a (two connections
// doing the same thing).
func merge(a, b *connStats) *connStats {
	out := *a
	out.attempted += b.attempted
	out.ok += b.ok
	out.refused += b.refused
	out.failed += b.failed
	out.mismatched += b.mismatched
	out.samples = append(append([]sample(nil), a.samples...), b.samples...)
	return &out
}

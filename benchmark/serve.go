package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	parclass "repro"
	"repro/internal/dataset"
	"repro/internal/flat"
	"repro/internal/ingest"
	"repro/internal/serve"
)

// The serve workloads' traffic. Both run against one in-process serve.Server
// with parclassd's defaults (micro-batching on, ingest on, level-sync auto)
// behind a real loopback listener, from at most 2 connections.
const (
	bulkRows       = 64  // rows per serve_bulk request
	ingestRows     = 32  // rows per serve_online_mix ingest request
	predictPerSec  = 250 // serve_online_mix single-row predicts
	ingestPerSec   = 100 // serve_online_mix bulk ingests
	bodyPool       = 256 // distinct bodies per kind, cycled
	checkEvery     = 64  // every n-th predict reply is compared with the in-process answer
	maxWarmSeconds = 2.0
)

// serveWorkload is serve_bulk (bulk) or serve_online_mix.
type serveWorkload struct {
	data parclass.SyntheticConfig
	seed int64
	sc   scale
	bulk bool

	train, hold *parclass.Dataset
	model       *parclass.Model
	acc         float64
	srv         *serve.Server
	httpSrv     *http.Server
	served      chan struct{} // closed when httpSrv.Serve has returned
	base        string

	predict, inline, ingest []body
	// rowIdx[k] is the holdout rows of predict body k, for the kernel stage.
	rowIdx [][]int

	genS, splitS, trainS series
}

func (w *serveWorkload) setup(l *lane, parent int64) error {
	var err error
	_, w.train, w.hold, err = generate(w.data, 0.2, l, parent, &w.genS, &w.splitS)
	if err != nil {
		return err
	}
	b, err := timedTrain(w.train, parclass.Options{Algorithm: parclass.MWK, Procs: 2, Prune: true}, l, parent, "parclass.train")
	if err != nil {
		return err
	}
	w.model = b.model
	w.trainS = append(w.trainS, b.wallS)
	if err := w.model.Compile(); err != nil {
		return fmt.Errorf("Compile: %w", err)
	}
	w.acc = w.model.Accuracy(w.hold)

	w.srv = serve.New("default")
	if _, err := w.srv.Load("default", w.model, "benchmark"); err != nil {
		return fmt.Errorf("serve.Load: %w", err)
	}
	if err := w.srv.EnableBatching(serve.BatchConfig{}); err != nil {
		return err
	}
	if err := w.srv.EnableIngest(serve.IngestConfig{}); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.base = "http://" + ln.Addr().String()
	w.httpSrv = &http.Server{Handler: w.srv.Handler()}
	w.served = make(chan struct{})
	go func() {
		defer close(w.served)
		w.httpSrv.Serve(ln) // returns ErrServerClosed from close()
	}()
	return w.makeBodies()
}

func (w *serveWorkload) close() {
	if w.httpSrv == nil {
		return
	}
	w.httpSrv.Close()
	<-w.served
	w.srv.Close()
	w.httpSrv = nil
}

// makeBodies generates the request pools from the seed: rows drawn from the
// holdout, marshalled once, with the in-process answer each must get.
func (w *serveWorkload) makeBodies() error {
	rng := rand.New(rand.NewSource(w.seed))
	rows := stringRows(w.hold)
	tbl := w.hold.Table()
	names := w.hold.AttrNames()
	classes := w.hold.ClassNames()
	w.predict, w.inline, w.ingest, w.rowIdx = nil, nil, nil, nil
	marshal := func(v any) []byte {
		raw, err := json.Marshal(v)
		if err != nil {
			panic(err) // maps and slices of strings always marshal
		}
		return raw
	}
	for k := 0; k < bodyPool; k++ {
		n := 1
		if w.bulk {
			n = bulkRows
		}
		idx := make([]int, n)
		picked := make([][]string, n)
		for i := range idx {
			idx[i] = rng.Intn(len(rows))
			picked[i] = rows[idx[i]]
		}
		want, err := w.model.PredictValuesBatch(picked)
		if err != nil {
			return fmt.Errorf("PredictValuesBatch: %w", err)
		}
		req := map[string]any{"values_rows": picked}
		if !w.bulk {
			named := make(map[string]string, len(names))
			for a, name := range names {
				named[name] = picked[0][a]
			}
			req = map[string]any{"row": named}
		}
		w.predict = append(w.predict, body{raw: marshal(req), rows: n, want: want})
		req["no_batch"] = true
		w.inline = append(w.inline, body{raw: marshal(req), rows: n, want: want})
		w.rowIdx = append(w.rowIdx, idx)

		type labeled struct {
			Values []string `json:"values"`
			Class  string   `json:"class"`
		}
		batch := make([]labeled, ingestRows)
		for i := range batch {
			j := rng.Intn(len(rows))
			batch[i] = labeled{rows[j], classes[tbl.Class(j)]}
		}
		w.ingest = append(w.ingest, body{raw: marshal(map[string]any{"rows": batch}), rows: ingestRows})
	}
	return nil
}

// phase is one load phase's outcome: the predict side (both connections on
// serve_bulk) and, on serve_online_mix, the ingest side.
type phase struct {
	d               time.Duration
	predict, ingest *connStats
}

// load runs the workload's traffic for d: closed loop on 2 connections for
// serve_bulk, a fixed-interval open loop with predicts on one connection and
// ingests on the other for serve_online_mix.
func (w *serveWorkload) load(d time.Duration, tr *tracer, parent int64) phase {
	var a, b *conn
	if w.bulk {
		a = newConn(w.base+"/v1/predict", "nethttp.predict", w.predict, checkEvery)
		b = newConn(w.base+"/v1/predict", "nethttp.predict", w.predict[bodyPool/2:], checkEvery)
	} else {
		a = newConn(w.base+"/v1/predict", "nethttp.predict", w.predict, checkEvery)
		b = newConn(w.base+"/v1/ingest", "nethttp.ingest", w.ingest, 1)
	}
	defer a.close()
	defer b.close()
	var sa, sb *connStats
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if w.bulk {
			sa = a.closedLoop(d, tr.lane(), parent)
		} else {
			sa = a.openLoop(d, time.Second/predictPerSec, tr.lane(), parent)
		}
	}()
	go func() {
		defer wg.Done()
		if w.bulk {
			sb = b.closedLoop(d, tr.lane(), parent)
		} else {
			sb = b.openLoop(d, time.Second/ingestPerSec, tr.lane(), parent)
		}
	}()
	wg.Wait()
	if w.bulk {
		return phase{d: d, predict: merge(sa, sb)}
	}
	return phase{d: d, predict: sa, ingest: sb}
}

// count adds a phase's requests to the run's attempted and failed totals.
func (p phase) count(name string, r *result) {
	for _, st := range []*connStats{p.predict, p.ingest} {
		if st != nil {
			st.print(name)
			r.attempted += st.attempted
			r.failed += st.attempted - st.ok
		}
	}
}

// warmUp runs the workload's traffic unrecorded, so that connections,
// batcher and heap reach their steady state before the phase that counts.
func (w *serveWorkload) warmUp(seconds float64, r *result) {
	warm := seconds / 5
	if warm > maxWarmSeconds {
		warm = maxWarmSeconds
	}
	w.load(time.Duration(warm*float64(time.Second)), nil, 0).count("warm-up", r)
	runtime.GC()
}

// measured runs the phase that counts.
func (w *serveWorkload) measured(seconds float64, tr *tracer, parent int64, r *result) phase {
	p := w.load(time.Duration(seconds*float64(time.Second)), tr, parent)
	p.count("measured", r)
	return p
}

func (w *serveWorkload) measure(seconds float64, r *result) error {
	w.warmUp(seconds, r)
	p := w.measured(seconds, nil, 0, r)

	win := p.predict.window(p.d)
	if len(win.all) == 0 {
		return fmt.Errorf("no predict request was answered")
	}
	win.setLatency(r)
	if p.ingest == nil {
		r.set("rows_per_s", summarize(win.rowsPerS))
	} else {
		// The schedule fixes the rows offered; what is answered per second
		// of the phase falls below that only when the server falls behind.
		rows := p.predict.ok*p.predict.rowsPerReq + p.ingest.ok*p.ingest.rowsPerReq
		r.set("rows_per_s", scalar(float64(rows)/max(p.predict.elapsed, p.ingest.elapsed).Seconds()))
	}
	r.checkAccuracy(w.acc, 0.96-w.sc.accSlack)
	r.set("holdout_accuracy", scalar(w.acc))
	return nil
}

// stage calls fn over the bodies iters times on this goroutine, after
// len(bodies)/8 untimed calls, and returns the call times in µs.
func stage(iters int, l *lane, parent int64, name string, fn func(k int) error) (series, error) {
	var s series
	warm := bodyPool / 8
	for k := 0; k < warm+iters; k++ {
		t0 := time.Now()
		err := fn(k % bodyPool)
		t1 := time.Now()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		if k >= warm {
			l.add(parent, name, t0, t1)
			s = append(s, float64(t1.Sub(t0).Nanoseconds())/1e3)
		}
	}
	return s, nil
}

// handle returns a stage that passes bodies to the server's handler with an
// in-memory recorder: everything the server does for a request, and nothing
// of net/http's connection handling.
func (w *serveWorkload) handle(path string, bodies []body) func(k int) error {
	h := w.srv.Handler()
	return func(k int) error {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(bodies[k].raw)))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("status %d: %s", rec.Code, rec.Body)
		}
		if !bodies[k].matches(rec.Body.Bytes()) {
			return fmt.Errorf("body %d: wrong reply %s", k, rec.Body)
		}
		return nil
	}
}

func (w *serveWorkload) layers(seconds float64, l *lane, parent int64, r *result) error {
	r.set("synth.generate_s", summarize(w.genS))
	r.set("dataset.split_holdout_s", summarize(w.splitS))
	r.set("parclass.train_s", summarize(w.trainS))

	// The workload's traffic at a third of the window: spans off, then on.
	w.warmUp(seconds/3, r)
	plain := w.measured(seconds/3, nil, 0, r)
	traced := w.measured(seconds/3, l.tr, parent, r)
	tw, pw := traced.predict.window(traced.d), plain.predict.window(plain.d)
	if len(tw.all) == 0 || len(pw.all) == 0 {
		return fmt.Errorf("no predict request was answered")
	}
	r.set("trace.overhead_share", scalar(tw.mean.median()/pw.mean.median()-1))
	r.set("serve.predict_p50_ms", summarize(tw.all))
	r.set("serve.predict_p999_ms", scalar(tw.all.pct(0.999)))
	if traced.ingest != nil {
		in := traced.ingest.latencies()
		r.set("serve.ingest_p50_ms", summarize(in))
		r.set("serve.ingest_p99_ms", scalar(in.pct(0.99)))
		late := append(append(series(nil), traced.predict.late...), traced.ingest.late...)
		r.set("loadgen.late_p99_us", scalar(late.pct(0.99)))
	}
	if err := w.serverCounters(r); err != nil {
		return err
	}

	// The stage table: one goroutine, the same bodies, each stage called
	// from outside.
	iters := w.sc.stageIters
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	handler, err := stage(iters, l, parent, "serve.handler", w.handle("/v1/predict", w.predict))
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	calls := float64(iters + bodyPool/8)
	r.set("serve.alloc_bytes_per_req", scalar(float64(after.TotalAlloc-before.TotalAlloc)/calls))
	r.set("serve.mallocs_per_req", scalar(float64(after.Mallocs-before.Mallocs)/calls))
	var inline series
	if w.bulk {
		inline, err = w.bulkStages(iters, l, parent, r)
	} else {
		inline, err = stage(iters, l, parent, "serve.handler_inline", w.handle("/v1/predict", w.inline))
	}
	if err != nil {
		return err
	}
	r.set("serve.handler_us", summarize(handler))
	r.set("serve.handler_inline_us", summarize(inline))
	r.set("serve.batcher_wait_us", scalar(handler.median()-inline.median()))
	r.set("serve.body_bytes", scalar(float64(len(w.predict[0].raw))))

	one := newConn(w.base+"/v1/predict", "nethttp.predict_1conn", w.predict, checkEvery)
	wire := one.closedLoop(time.Duration(seconds/10*float64(time.Second)), l, parent)
	one.close()
	phase{predict: wire}.count("1-conn", r)
	r.set("nethttp.wire_us", scalar(wire.latencies().median()*1e3-handler.median()))

	if !w.bulk {
		in, err := stage(iters, l, parent, "serve.ingest_handler", w.handle("/v1/ingest", w.ingest))
		if err != nil {
			return err
		}
		r.set("serve.ingest_handler_us", summarize(in))
		t0 := time.Now()
		if _, err := w.srv.RetrainOnce("default", ingest.RetrainConfig{}); err != nil {
			return fmt.Errorf("RetrainOnce: %w", err)
		}
		l.add(parent, "ingest.retrain", t0, time.Now())
		r.set("ingest.retrain_s", scalar(time.Since(t0).Seconds()))
	}
	return nil
}

// serverCounters reads the server's own counters from GET /v1/metrics.
func (w *serveWorkload) serverCounters(r *result) error {
	resp, err := http.Get(w.base + "/v1/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var m struct {
		Batching struct {
			ShedTotal     int64 `json:"shed_total"`
			CoalescedRows struct {
				Mean float64 `json:"mean"`
			} `json:"coalesced_rows"`
		} `json:"batching"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return fmt.Errorf("GET /v1/metrics: %w", err)
	}
	r.set("serve.dispatch_rows_mean", scalar(m.Batching.CoalescedRows.Mean))
	r.set("serve.shed", scalar(float64(m.Batching.ShedTotal)))
	return nil
}

// bulkStages times the inline handler and, right after it on the same body
// (so each stage finds the caches as the handler's own stage did), what the
// handler is made of: encoding/json into a struct shaped like the request,
// PredictValuesBatch on the decoded rows, and encoding/json of a struct
// shaped like the reply. What is left of handler_inline is routing, metrics
// and the body read; it is the median of the per-body remainders. The flat
// kernel is timed beside them on tuples decoded beforehand. It returns the
// handler_inline series.
func (w *serveWorkload) bulkStages(iters int, l *lane, parent int64, r *result) (series, error) {
	type request struct {
		ValuesRows [][]string `json:"values_rows"`
	}
	type response struct {
		Model       string   `json:"model"`
		Predictions []string `json:"predictions"`
		Rows        int      `json:"rows"`
		ElapsedUS   int64    `json:"elapsed_us"`
	}
	ft, err := flat.Compile(w.model.Tree())
	if err != nil {
		return nil, fmt.Errorf("flat.Compile: %w", err)
	}
	tbl := w.hold.Table()
	tuples := make([][]dataset.Tuple, bodyPool)
	for k, idx := range w.rowIdx {
		for _, i := range idx {
			tuples[k] = append(tuples[k], tbl.Row(i))
		}
	}
	out := make([]int32, bulkRows)
	handleInline := w.handle("/v1/predict", w.inline)
	var buf bytes.Buffer
	var inline, decode, batch, encode, kernel, other series
	us := func(a, b time.Time) float64 { return float64(b.Sub(a).Nanoseconds()) / 1e3 }
	warm := bodyPool / 8
	for i := 0; i < warm+iters; i++ {
		k := i % bodyPool
		var req request
		t0 := time.Now()
		if err := handleInline(k); err != nil {
			return nil, fmt.Errorf("serve.handler_inline: %w", err)
		}
		t1 := time.Now()
		if err := json.NewDecoder(bytes.NewReader(w.inline[k].raw)).Decode(&req); err != nil {
			return nil, fmt.Errorf("serve.json_decode: %w", err)
		}
		t2 := time.Now()
		preds, err := w.model.PredictValuesBatch(req.ValuesRows)
		if err != nil {
			return nil, fmt.Errorf("parclass.values_batch: %w", err)
		}
		t3 := time.Now()
		buf.Reset()
		if err := json.NewEncoder(&buf).Encode(response{"default", preds, len(preds), 1}); err != nil {
			return nil, fmt.Errorf("serve.json_encode: %w", err)
		}
		t4 := time.Now()
		ft.PredictBatchInto(tuples[k], out, 1)
		t5 := time.Now()
		if i < warm {
			continue
		}
		l.add(parent, "serve.handler_inline", t0, t1)
		l.add(parent, "serve.json_decode", t1, t2)
		l.add(parent, "parclass.values_batch", t2, t3)
		l.add(parent, "serve.json_encode", t3, t4)
		l.add(parent, "flat.kernel", t4, t5)
		inline, decode, batch = append(inline, us(t0, t1)), append(decode, us(t1, t2)), append(batch, us(t2, t3))
		encode, kernel = append(encode, us(t3, t4)), append(kernel, us(t4, t5))
		other = append(other, us(t0, t1)-us(t1, t4))
	}
	r.set("serve.json_decode_us", summarize(decode))
	r.set("parclass.values_batch_us", summarize(batch))
	r.set("serve.json_encode_us", summarize(encode))
	r.set("flat.kernel_us", summarize(kernel))
	r.set("serve.handler_other_us", summarize(other))
	fmt.Printf("# stage table: handler_inline %.1f us; json_decode %.1f + values_batch %.1f + json_encode %.1f leave %.1f (%.1f%%)\n",
		inline.median(), decode.median(), batch.median(), encode.median(), other.median(), 100*other.median()/inline.median())
	return inline, nil
}

package serve

// The predict micro-batcher. The paper's throughput argument — amortize
// per-record work by operating on whole attribute lists at once — applies
// to the serving side too: N concurrent /v1/predict requests each walking
// the tree alone cost N dispatches, while coalescing them into one
// PredictBatch/PredictValuesBatch call pays the fan-out once and lets the
// sharded flat walker chew a contiguous row block (Spencer's GPGPU
// tree-evaluation result: classification-tree throughput is won by
// evaluating many rows per dispatch). The shape is the FastFlow
// farm-with-accelerator idiom the training engines already use: a bounded
// admission queue in front (backpressure: a full queue sheds with 429 +
// Retry-After instead of letting goroutines and memory grow without
// bound), one dispatcher goroutine that collects requests until either
// MaxRows rows have coalesced or Linger has passed since the first, then
// one batched walk per (model, form) group per window.

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	parclass "repro"
)

// BatchConfig configures the predict micro-batcher (Server.EnableBatching).
type BatchConfig struct {
	// MaxRows flushes a window once this many rows have coalesced.
	MaxRows int
	// Linger flushes a window this long after its first request even if
	// MaxRows has not been reached, bounding the latency cost of batching.
	Linger time.Duration
	// QueueDepth is the admission queue capacity in requests; a request
	// arriving to a full queue is shed with 429 + Retry-After.
	QueueDepth int
}

// Batching defaults: a 256-row window mirrors flat.minShard (the smallest
// batch the sharded walker fans out), 200µs linger keeps the added latency
// an order of magnitude under the decode cost it buys back, and 256 queued
// requests bound admission at roughly one linger window of overload.
const (
	DefaultBatchMaxRows    = 256
	DefaultBatchLinger     = 200 * time.Microsecond
	DefaultBatchQueueDepth = 256
)

// withDefaults fills zero fields.
func (c BatchConfig) withDefaults() BatchConfig {
	if c.MaxRows <= 0 {
		c.MaxRows = DefaultBatchMaxRows
	}
	if c.Linger <= 0 {
		c.Linger = DefaultBatchLinger
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = DefaultBatchQueueDepth
	}
	return c
}

// predictOutcome is what the dispatcher hands back to a waiting request.
type predictOutcome struct {
	preds []string
	// trees is the ensemble size of the model that actually served the
	// batch (the dispatch-time version, which may be newer than the one
	// current when the request was admitted). The response's "trees" field
	// must come from here, not from a request-time snapshot: reading model
	// metadata from one version while the predictions came from another is
	// exactly the torn view a hot swap must never produce.
	trees int
	code  int    // HTTP status; http.StatusOK on success
	err   string // error body when code != http.StatusOK
}

// pendingPredict is one admitted predict request parked in the queue.
// Exactly one of rows/vrows is set; single marks the one-row request forms
// (row, values) whose response carries "prediction" instead of
// "predictions".
type pendingPredict struct {
	model      string
	positional bool
	single     bool
	rows       []map[string]string
	vrows      [][]string
	// quit is the dispatcher shutdown sentinel (see batcher.close).
	quit bool
	// done is buffered so the dispatcher never blocks on a caller that
	// gave up (client disconnect).
	done chan predictOutcome
}

// newPending parks a decoded predict request for the dispatcher.
func newPending(model string, req *predictRequest) *pendingPredict {
	p := &pendingPredict{model: model, done: make(chan predictOutcome, 1)}
	switch {
	case req.Row != nil:
		p.single = true
		p.rows = []map[string]string{req.Row}
	case len(req.Values) > 0:
		p.single = true
		p.positional = true
		p.vrows = [][]string{req.Values}
	case len(req.ValuesRows) > 0:
		p.positional = true
		p.vrows = req.ValuesRows
	default:
		p.rows = req.Rows
	}
	return p
}

// nrows is the request's row count.
func (p *pendingPredict) nrows() int {
	if p.positional {
		return len(p.vrows)
	}
	return len(p.rows)
}

// batcher owns the admission queue and the dispatcher goroutine.
type batcher struct {
	s    *Server
	cfg  BatchConfig
	ch   chan *pendingPredict
	done chan struct{}
	// holdExec, when non-nil (tests only), runs at the start of every
	// flush; tests use it to park the dispatcher and make queue-full
	// shedding deterministic.
	holdExec func()
}

// EnableBatching turns on server-side micro-batching for /v1/predict with
// cfg (zero fields take the Default* values). Call once, before serving;
// requests opt out individually with "no_batch": true. Stop the dispatcher
// with Close.
func (s *Server) EnableBatching(cfg BatchConfig) error {
	cfg = cfg.withDefaults()
	b := &batcher{
		s:    s,
		cfg:  cfg,
		ch:   make(chan *pendingPredict, cfg.QueueDepth),
		done: make(chan struct{}),
	}
	if !s.batch.CompareAndSwap(nil, b) {
		return fmt.Errorf("serve: batching already enabled")
	}
	go b.run()
	return nil
}

// Close stops the micro-batcher's dispatcher, failing any still-queued
// requests with 503. Predict requests arriving afterwards run inline. A
// server without batching enabled has nothing to stop.
func (s *Server) Close() {
	b := s.batch.Swap(nil)
	if b == nil {
		return
	}
	// The sentinel is a blocking send: it lands behind every request
	// admitted before the pointer swap, so those are still dispatched.
	b.ch <- &pendingPredict{quit: true}
	<-b.done
}

// submit enqueues p, reporting false when the admission queue is full.
func (b *batcher) submit(p *pendingPredict) bool {
	select {
	case b.ch <- p:
		return true
	default:
		return false
	}
}

// maxRetryAfterSecs caps the Retry-After hint: past a minute the estimate
// says more about a pathological linger configuration than about when the
// queue will actually have room.
const maxRetryAfterSecs = 60

// retryAfter is the Retry-After header value for shed requests. The hint
// scales with the admission queue's actual occupancy: a shed client is
// told to stay away for the estimated drain time of the CURRENT backlog —
// the queued requests (at the running average rows per request) divided
// into MaxRows-row linger windows. The old hint was one linger window
// regardless of depth, so under sustained overload every shed client
// retried into a queue that was still full and was shed again, forever.
// Rounded up to a whole second per RFC 9110, floored at 1s and capped at
// maxRetryAfterSecs.
func (b *batcher) retryAfter() string {
	depth := int64(len(b.ch))
	if depth < 1 {
		depth = 1
	}
	// Rows per request from the live request-size histogram; 1 until any
	// traffic has completed.
	avgRows := int64(1)
	if n := b.s.met.batchRows.count.Load(); n > 0 {
		if m := b.s.met.batchRows.sum.Load() / n; m > 1 {
			avgRows = m
		}
	}
	windows := (depth*avgRows + int64(b.cfg.MaxRows) - 1) / int64(b.cfg.MaxRows)
	if windows < 1 {
		windows = 1
	}
	drain := time.Duration(windows) * b.cfg.Linger
	secs := int64(drain+time.Second-1) / int64(time.Second)
	if secs < 1 {
		secs = 1
	}
	if secs > maxRetryAfterSecs {
		secs = maxRetryAfterSecs
	}
	return strconv.FormatInt(secs, 10)
}

// run is the dispatcher loop: block for a window's first request, collect
// until MaxRows rows or the linger timer, flush, repeat.
func (b *batcher) run() {
	defer close(b.done)
	for {
		first := <-b.ch
		if first.quit {
			b.drain()
			return
		}
		items := []*pendingPredict{first}
		rows := first.nrows()
		timer := time.NewTimer(b.cfg.Linger)
		quit := false
	collect:
		for rows < b.cfg.MaxRows {
			select {
			case p := <-b.ch:
				if p.quit {
					quit = true
					break collect
				}
				items = append(items, p)
				rows += p.nrows()
			case <-timer.C:
				break collect
			}
		}
		timer.Stop()
		b.flush(items, rows)
		if quit {
			b.drain()
			return
		}
	}
}

// drain fails everything still queued at shutdown.
func (b *batcher) drain() {
	for {
		select {
		case p := <-b.ch:
			if !p.quit {
				p.done <- predictOutcome{code: http.StatusServiceUnavailable, err: "server shutting down"}
			}
		default:
			return
		}
	}
}

// groupKey buckets a window's requests into batchable calls: one flat-tree
// dispatch serves one model and one row form.
type groupKey struct {
	model      string
	positional bool
}

// flush resolves one collected window: group by (model, form), one batched
// walk per group.
func (b *batcher) flush(items []*pendingPredict, rows int) {
	if b.holdExec != nil {
		b.holdExec()
	}
	b.s.met.batches.Add(1)
	b.s.met.coalescedRows.observe(int64(rows))
	b.s.met.coalescedReqs.observe(int64(len(items)))
	groups := make(map[groupKey][]*pendingPredict)
	var order []groupKey
	for _, p := range items {
		k := groupKey{model: p.model, positional: p.positional}
		if _, seen := groups[k]; !seen {
			order = append(order, k)
		}
		groups[k] = append(groups[k], p)
	}
	for _, k := range order {
		b.execute(k, groups[k])
	}
}

// execute runs one group as a single batched call against the model
// version current at dispatch time (requests admitted before a hot swap
// may thus be answered by the newer version — the same guarantee an inline
// request racing the swap gets).
func (b *batcher) execute(k groupKey, group []*pendingPredict) {
	sl, cur := b.s.current(k.model)
	if cur == nil {
		for _, p := range group {
			p.done <- predictOutcome{code: http.StatusNotFound, err: fmt.Sprintf("no model %q", k.model)}
		}
		return
	}
	total := 0
	for _, p := range group {
		total += p.nrows()
	}
	var (
		preds []string
		err   error
	)
	if k.positional {
		all := make([][]string, 0, total)
		for _, p := range group {
			all = append(all, p.vrows...)
		}
		preds, err = cur.model.PredictValuesBatch(all)
	} else {
		all := make([]map[string]string, 0, total)
		for _, p := range group {
			all = append(all, p.rows...)
		}
		preds, err = cur.model.PredictBatch(all)
	}
	if err != nil {
		// One malformed row must fail only its own request, with row
		// indices relative to that request — re-run each request alone.
		for _, p := range group {
			b.executeOne(p, cur.model)
		}
		return
	}
	sl.predictions.Add(int64(total))
	b.s.met.predictions.Add(int64(total))
	nt := cur.model.NumTrees()
	off := 0
	for _, p := range group {
		n := p.nrows()
		p.done <- predictOutcome{preds: preds[off : off+n], trees: nt, code: http.StatusOK}
		off += n
	}
}

// executeOne is the per-request fallback when a coalesced batch fails: it
// reproduces the inline path's calls exactly, so error text and row
// attribution match what the request would have seen unbatched.
func (b *batcher) executeOne(p *pendingPredict, m parclass.Predictor) {
	var (
		preds []string
		err   error
	)
	switch {
	case p.single && p.positional:
		var pred string
		pred, err = m.PredictValues(p.vrows[0])
		preds = []string{pred}
	case p.single:
		var pred string
		pred, err = m.Predict(p.rows[0])
		preds = []string{pred}
	case p.positional:
		preds, err = m.PredictValuesBatch(p.vrows)
	default:
		preds, err = m.PredictBatch(p.rows)
	}
	if err != nil {
		p.done <- predictOutcome{code: predictErrCode(err), err: err.Error()}
		return
	}
	if sl := b.s.slot(p.model, false); sl != nil {
		sl.predictions.Add(int64(len(preds)))
	}
	b.s.met.predictions.Add(int64(len(preds)))
	p.done <- predictOutcome{preds: preds, trees: m.NumTrees(), code: http.StatusOK}
}

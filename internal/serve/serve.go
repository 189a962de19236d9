// Package serve is the model-serving subsystem: a stdlib-only net/http
// server over a registry of trained parclass models. The request path is
// the FastFlow farm shape the training engines already use — accept,
// decode, fan a batch out over worker shards (Model.PredictBatch), reduce
// — and models are hot-swappable: POST /v1/models/{name} parses and compiles
// the replacement off to the side, then publishes it with one atomic
// pointer store, so in-flight requests finish on the model they started
// with and no request is ever dropped during a swap.
//
// Routes, all under the versioned /v1 prefix (unversioned paths answer
// 404):
//
//	POST /v1/predict          classify one row or a batch of rows
//	POST /v1/ingest           append labeled rows to the retrain window
//	GET  /v1/healthz          liveness + model count
//	GET  /v1/metrics          request counts, latency/batch histograms,
//	                          live build-phase gauges
//	GET  /v1/models           list registered models
//	GET  /v1/model/{name}     stats, schema, optional rules (?rules=1)
//	POST /v1/models/{name}    load/replace a model from model JSON
//
// A known path hit with the wrong method answers 405 with an Allow header
// and a JSON error body.
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	parclass "repro"
	"repro/internal/dataset"
)

// DefaultModelName is the registry name used when a request names no model.
const DefaultModelName = "default"

// maxModelBytes bounds a POST /models/{name} body. Model uploads are rare
// and legitimately large; the predict hot path gets its own, much smaller
// cap (DefaultPredictMaxBytes) so one client cannot make the server
// buffer-decode a quarter-gigabyte JSON body per request.
const maxModelBytes = 256 << 20

// DefaultPredictMaxBytes is the default POST /predict body cap; override
// with Server.SetPredictMaxBytes (parclassd: -predict-max-bytes).
const DefaultPredictMaxBytes = 8 << 20

// loadedModel is one immutable published model version. The registry
// holds Predictors, so a slot can serve a single tree or a forest and a
// hot swap can change the shape.
type loadedModel struct {
	model    parclass.Predictor
	loadedAt time.Time
	source   string
}

// slot is a registry entry: the atomically swappable current version plus
// per-model counters that survive swaps.
type slot struct {
	ptr         atomic.Pointer[loadedModel]
	predictions atomic.Int64
	swaps       atomic.Int64
	// failure is the last failed training/load attempt, nil when healthy;
	// a successful Load clears it.
	failure atomic.Pointer[trainFailure]
}

// trainFailure records one failed training or load attempt for a model name.
type trainFailure struct {
	msg string
	at  time.Time
}

// Server serves predictions over a registry of named models. Create with
// New, register models with Load, and mount Handler.
type Server struct {
	defaultModel string
	mu           sync.RWMutex // guards the name→slot map, not the models
	models       map[string]*slot
	met          *metrics
	// buildMon, when set, surfaces a training run's live phase totals on
	// /metrics (see SetBuildMonitor).
	buildMon atomic.Pointer[parclass.BuildMonitor]
	// predictCap overrides DefaultPredictMaxBytes when positive.
	predictCap atomic.Int64
	// adm is the predict in-flight cap, nil until EnableBatching.
	adm atomic.Pointer[admission]
	// ing is the online-learning subsystem (labeled-row windows + retrain
	// counters), nil until EnableIngest.
	ing atomic.Pointer[ingestState]
	// swapHook, when set, observes every locally published model version
	// (uploads and retrain swaps) with its serialized artifact — the seam
	// the cluster replicator hangs off (see SetSwapHook).
	swapHook atomic.Pointer[SwapHook]
}

// SwapHook observes one locally published model version: a successful
// POST /v1/models/{name} upload or a retrain-loop swap. raw is the
// artifact as versioned model JSON (the upload body, or the candidate
// re-serialized), so the observer can ship the exact bytes elsewhere
// without re-encoding. The hook runs on the publishing goroutine after
// the registry swap — keep it fast or hand off.
//
// Replication-applied loads go through Load directly and do NOT fire the
// hook; only local publishes do, which is what keeps a replicated swap
// from echoing around the fleet forever.
type SwapHook func(name string, m parclass.Predictor, raw []byte, source string)

// SetSwapHook installs the local-publish observer (nil clears it). Safe
// to call at any time, but install it before serving so no publish is
// missed.
func (s *Server) SetSwapHook(h SwapHook) {
	if h == nil {
		s.swapHook.Store(nil)
		return
	}
	s.swapHook.Store(&h)
}

// firePublish invokes the swap hook for a locally published version,
// serializing the predictor when the caller has no upload bytes in hand.
func (s *Server) firePublish(name string, m parclass.Predictor, raw []byte, source string) {
	hp := s.swapHook.Load()
	if hp == nil {
		return
	}
	if raw == nil {
		var buf bytes.Buffer
		if err := m.WriteModel(&buf); err != nil {
			// A model that cannot re-serialize cannot replicate; surface it
			// as a degraded-health failure instead of dropping it silently.
			s.RecordFailure(name, fmt.Errorf("serializing %q for replication: %w", name, err))
			return
		}
		raw = buf.Bytes()
	}
	(*hp)(name, m, raw, source)
}

// SetPredictMaxBytes overrides the POST /predict body cap (bytes); n <= 0
// restores DefaultPredictMaxBytes. Safe to call at any time.
func (s *Server) SetPredictMaxBytes(n int64) { s.predictCap.Store(n) }

// predictMaxBytes is the effective predict body cap.
func (s *Server) predictMaxBytes() int64 {
	if n := s.predictCap.Load(); n > 0 {
		return n
	}
	return DefaultPredictMaxBytes
}

// SetBuildMonitor attaches a training run's monitor; GET /metrics then
// reports the build state and per-phase totals live while the build runs
// and the final breakdown afterwards. Safe to call at any time, including
// while serving.
func (s *Server) SetBuildMonitor(bm *parclass.BuildMonitor) { s.buildMon.Store(bm) }

// New creates an empty server. defaultModel is the name resolved when a
// predict request omits "model" ("" means DefaultModelName).
func New(defaultModel string) *Server {
	if defaultModel == "" {
		defaultModel = DefaultModelName
	}
	return &Server{
		defaultModel: defaultModel,
		models:       make(map[string]*slot),
		met:          newMetrics(),
	}
}

// Load registers (or hot-swaps) a classifier — a single tree or a forest
// — under name and reports whether an earlier version was replaced. The
// predictor is compiled before publication so no request pays the
// flat-pool build.
func (s *Server) Load(name string, m parclass.Predictor, source string) (swapped bool, err error) {
	return s.loadGuarded(name, m, source, nil)
}

// loadGuarded is Load with an optional admission guard: the new version
// is published only while guard(current model) holds, re-checked
// atomically against the registry pointer (CAS loop), so a publish racing
// another swap can never install a version its guard would have refused.
// guard sees nil when the name has no serving model. It returns
// (published, swapped, err); published is false only when the guard
// refused.
func (s *Server) loadGuarded(name string, m parclass.Predictor, source string, guard func(old parclass.Predictor) bool) (swapped bool, err error) {
	if name == "" {
		name = s.defaultModel
	}
	if err := m.Compile(); err != nil {
		return false, err
	}
	sl := s.slot(name, true)
	lm := &loadedModel{model: m, loadedAt: time.Now(), source: source}
	for {
		old := sl.ptr.Load()
		if guard != nil {
			var oldm parclass.Predictor
			if old != nil {
				oldm = old.model
			}
			if !guard(oldm) {
				return false, errStaleGuard
			}
		}
		if sl.ptr.CompareAndSwap(old, lm) {
			sl.swaps.Add(1)
			sl.failure.Store(nil) // a successful load ends the degraded state
			return old != nil, nil
		}
	}
}

// errStaleGuard reports a loadGuarded publish refused by its guard: the
// registry moved to a version the guard no longer accepts.
var errStaleGuard = errors.New("serve: guarded load refused, serving model changed")

// RecordFailure records a failed training or load attempt for name: GET
// /healthz reports the server degraded — 503 when the name has no serving
// model at all, 200 when an older version still serves — and GET /metrics
// carries the error until a later Load of the same name succeeds.
func (s *Server) RecordFailure(name string, err error) {
	if err == nil {
		return
	}
	if name == "" {
		name = s.defaultModel
	}
	sl := s.slot(name, true)
	sl.failure.Store(&trainFailure{msg: err.Error(), at: time.Now()})
}

// slot returns name's registry entry, creating it when create is set.
func (s *Server) slot(name string, create bool) *slot {
	s.mu.RLock()
	sl := s.models[name]
	s.mu.RUnlock()
	if sl != nil || !create {
		return sl
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if sl = s.models[name]; sl == nil {
		sl = &slot{}
		s.models[name] = sl
	}
	return sl
}

// current returns the published version of name's model, or nil.
func (s *Server) current(name string) (*slot, *loadedModel) {
	sl := s.slot(name, false)
	if sl == nil {
		return nil, nil
	}
	return sl, sl.ptr.Load()
}

// Handler builds the route table: every route under /v1, the stable
// contract, with a methodless fallback per path answering 405 + Allow for
// wrong-method hits.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	route(mux, "POST", "/v1/predict", s.handlePredict)
	route(mux, "POST", "/v1/ingest", s.handleIngest)
	route(mux, "GET", "/v1/healthz", s.handleHealthz)
	route(mux, "GET", "/v1/metrics", s.handleMetrics)
	route(mux, "GET", "/v1/models", s.handleList)
	route(mux, "GET", "/v1/model/{name}", s.handleModelInfo)
	route(mux, "POST", "/v1/models/{name}", s.handleModelSwap)
	return mux
}

// route registers h for method+path plus a methodless fallback on the same
// pattern. The Go 1.22 mux prefers the method-specific pattern, so the
// fallback only sees requests with the wrong method and can answer 405
// with the Allow header and a JSON body instead of the mux's plain-text
// default.
func route(mux *http.ServeMux, method, path string, h http.HandlerFunc) {
	mux.HandleFunc(method+" "+path, h)
	mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Allow", method)
		writeJSON(w, http.StatusMethodNotAllowed, map[string]string{
			"error": fmt.Sprintf("method %s not allowed on %s (allow: %s)",
				r.Method, strings.TrimPrefix(r.URL.Path, "/v1"), method),
		})
	})
}

// writeJSON renders v with status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// predictErrCode maps prediction failures to status codes: malformed rows
// are the client's fault (422), anything else is a server-side failure.
func predictErrCode(err error) int {
	if errors.Is(err, parclass.ErrUnknownAttribute) || errors.Is(err, parclass.ErrUnknownValue) {
		return http.StatusUnprocessableEntity
	}
	if errors.Is(err, parclass.ErrNotCompiled) {
		return http.StatusInternalServerError
	}
	return http.StatusUnprocessableEntity
}

// writeErr renders an error body and bumps the route's error counter.
func writeErr(w http.ResponseWriter, rs *routeStats, code int, format string, args ...any) {
	rs.errors.Add(1)
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// predictRequest is the POST /predict body: exactly one of Row (single,
// name→value), Rows (batch of the same), Values (single positional row in
// schema attribute order — the fast path, no per-attribute keys on the
// wire) or ValuesRows (batch positional), plus an optional model name.
// NoBatch is still accepted on the wire and has no effect: every predict
// runs inline, and every one counts toward the admission cap. The json
// tags name the wire keys decodePredict matches; FuzzPredictRequest holds
// the two to agreeing.
type predictRequest struct {
	Model      string              `json:"model,omitempty"`
	Row        map[string]string   `json:"row,omitempty"`
	Rows       []map[string]string `json:"rows,omitempty"`
	Values     []string            `json:"values,omitempty"`
	ValuesRows [][]string          `json:"values_rows,omitempty"`
	NoBatch    bool                `json:"no_batch,omitempty"`
}

// predictResponse is the POST /predict reply. Proba and Trees appear only
// when the serving predictor is a forest — single-tree responses carry
// exactly the pre-forest field set, byte for byte.
type predictResponse struct {
	Model       string   `json:"model"`
	Prediction  string   `json:"prediction,omitempty"`
	Predictions []string `json:"predictions,omitempty"`
	// Proba is the per-class vote fraction for a single-row request served
	// by a forest.
	Proba map[string]float64 `json:"proba,omitempty"`
	// Trees is the ensemble size when > 1 (forest models).
	Trees     int   `json:"trees,omitempty"`
	Rows      int   `json:"rows"`
	ElapsedUS int64 `json:"elapsed_us"`
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	rs := &s.met.predict
	rs.requests.Add(1)
	start := time.Now()
	// The body is read before admission, so a slow upload holds no slot.
	body, ok := s.readBody(w, r, rs)
	if !ok {
		return
	}
	a := s.adm.Load()
	if !a.admit(w, rs) {
		return
	}
	defer a.release()
	var req predictRequest
	if err := decodePredict(body, &req); err != nil {
		writeErr(w, rs, http.StatusBadRequest, "%v", err)
		return
	}
	forms := 0
	for _, set := range []bool{req.Row != nil, len(req.Rows) > 0, len(req.Values) > 0, len(req.ValuesRows) > 0} {
		if set {
			forms++
		}
	}
	if forms != 1 {
		writeErr(w, rs, http.StatusBadRequest, `need exactly one of "row", "rows", "values" and "values_rows"`)
		return
	}
	name := req.Model
	if name == "" {
		name = s.defaultModel
	}
	// One snapshot serves the whole request: predictions, trees and proba
	// all come from the same published version, so a hot swap cannot tear
	// the response.
	sl, cur := s.current(name)
	if cur == nil {
		writeErr(w, rs, http.StatusNotFound, "no model %q", name)
		return
	}
	resp := predictResponse{Model: name}
	if nt := cur.model.NumTrees(); nt > 1 {
		resp.Trees = nt
	}
	pp, _ := cur.model.(parclass.ProbaPredictor)
	switch {
	case req.Row != nil:
		var pred string
		var err error
		if pp != nil {
			pred, resp.Proba, err = pp.PredictProba(req.Row)
		} else {
			pred, err = cur.model.Predict(req.Row)
		}
		if err != nil {
			writeErr(w, rs, predictErrCode(err), "%v", err)
			return
		}
		resp.Prediction = pred
		resp.Rows = 1
	case len(req.Values) > 0:
		var pred string
		var err error
		if pp != nil {
			pred, resp.Proba, err = pp.PredictValuesProba(req.Values)
		} else {
			pred, err = cur.model.PredictValues(req.Values)
		}
		if err != nil {
			writeErr(w, rs, predictErrCode(err), "%v", err)
			return
		}
		resp.Prediction = pred
		resp.Rows = 1
	case len(req.ValuesRows) > 0:
		// One sharded batch walk, not a row-at-a-time PredictValues loop;
		// PredictValuesBatch keeps the "row %d:" error attribution.
		preds, err := cur.model.PredictValuesBatch(req.ValuesRows)
		if err != nil {
			writeErr(w, rs, predictErrCode(err), "%v", err)
			return
		}
		resp.Predictions = preds
		resp.Rows = len(preds)
	default:
		preds, err := cur.model.PredictBatch(req.Rows)
		if err != nil {
			writeErr(w, rs, predictErrCode(err), "%v", err)
			return
		}
		resp.Predictions = preds
		resp.Rows = len(preds)
	}
	sl.predictions.Add(int64(resp.Rows))
	s.met.predictions.Add(int64(resp.Rows))
	resp.ElapsedUS = time.Since(start).Microseconds()
	s.met.latencyUS.observe(resp.ElapsedUS)
	s.met.batchRows.observe(int64(resp.Rows))
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.met.health.requests.Add(1)
	published := 0
	failures := make(map[string]any)
	unserved := false
	s.mu.RLock()
	for name, sl := range s.models {
		cur := sl.ptr.Load()
		if cur != nil {
			published++
		}
		if f := sl.failure.Load(); f != nil {
			failures[name] = map[string]any{"error": f.msg, "at": f.at}
			if cur == nil {
				unserved = true
			}
		}
	}
	s.mu.RUnlock()
	// Degradation policy: any recorded failure flips the status to
	// "degraded"; the probe only turns unhealthy (503) when a failed name
	// has no serving model at all — a failed retrain of a model that still
	// serves its previous version keeps answering 200 so orchestrators do
	// not kill a working replica.
	status, code := "ok", http.StatusOK
	if len(failures) > 0 {
		status = "degraded"
		if unserved {
			code = http.StatusServiceUnavailable
		}
	}
	body := map[string]any{
		"status":         status,
		"models":         published,
		"uptime_seconds": time.Since(s.met.start).Seconds(),
	}
	if len(failures) > 0 {
		body["failures"] = failures
	}
	writeJSON(w, code, body)
}

// metricsSnapshot is the GET /metrics document.
type metricsSnapshot struct {
	UptimeSeconds    float64                  `json:"uptime_seconds"`
	Requests         map[string]routeSnapshot `json:"requests"`
	PredictionsTotal int64                    `json:"predictions_total"`
	PredictLatencyUS histogramSnapshot        `json:"predict_latency_us"`
	PredictBatchRows histogramSnapshot        `json:"predict_batch_rows"`
	// Degraded mirrors /healthz: true while any model carries an uncleared
	// training/load failure.
	Degraded bool                     `json:"degraded"`
	Models   map[string]modelCounters `json:"models"`
	// Build is present when a BuildMonitor is attached: the training run's
	// state and per-phase gauges, live while the build is in progress.
	Build *buildStatus `json:"build,omitempty"`
	// Batching is present when admission control is enabled: the cap, a
	// live in-flight gauge, the shed counter and the rows per dispatch.
	Batching *batchingSnapshot `json:"batching,omitempty"`
	// Ingest is present when online learning is enabled: window sizes,
	// ingested rows/s, retrain cycle counters and the last swap/reject
	// decision with its holdout accuracies.
	Ingest *ingestSnapshot `json:"ingest,omitempty"`
}

// batchingSnapshot is the /metrics admission-control section.
type batchingSnapshot struct {
	// QueueCap is the in-flight cap.
	QueueCap int64 `json:"queue_cap"`
	// QueueDepth is the live number of predicts in flight.
	QueueDepth int64 `json:"queue_depth"`
	// ShedTotal counts requests rejected 429 by admission control.
	ShedTotal int64 `json:"shed_total"`
	// CoalescedRows distributes the rows per dispatch. Each request is its
	// own dispatch, so it is the predict_batch_rows histogram.
	CoalescedRows histogramSnapshot `json:"coalesced_rows"`
}

// buildStatus is the /metrics build section.
type buildStatus struct {
	State          string             `json:"state"`
	Algorithm      string             `json:"algorithm,omitempty"`
	Procs          int                `json:"procs,omitempty"`
	BuildSeconds   float64            `json:"build_seconds,omitempty"`
	PhaseSeconds   map[string]float64 `json:"phase_seconds,omitempty"`
	Skew           float64            `json:"skew,omitempty"`
	Efficiency     float64            `json:"efficiency,omitempty"`
	WorkerBusySecs []float64          `json:"worker_busy_seconds,omitempty"`
}

// buildStatusFrom renders a monitor snapshot.
func buildStatusFrom(bm *parclass.BuildMonitor) *buildStatus {
	state, bt := bm.Snapshot()
	bs := &buildStatus{State: state}
	if bt == nil {
		return bs
	}
	tot := bt.Totals()
	bs.Algorithm = bt.Algorithm.String()
	bs.Procs = bt.Procs
	bs.BuildSeconds = bt.BuildSeconds
	bs.PhaseSeconds = map[string]float64{
		"eval": tot.Eval, "winner": tot.Winner, "split": tot.Split,
		"barrier": tot.Barrier, "idle": tot.Idle, "bin": tot.Bin,
	}
	bs.Skew = bt.Skew()
	bs.Efficiency = bt.Efficiency()
	for _, w := range bt.WorkerTotals() {
		bs.WorkerBusySecs = append(bs.WorkerBusySecs, w.Busy())
	}
	return bs
}

type modelCounters struct {
	Predictions int64     `json:"predictions"`
	Swaps       int64     `json:"swaps"`
	LoadedAt    time.Time `json:"loaded_at"`
	Source      string    `json:"source,omitempty"`
	// LastError/LastErrorAt carry the model's uncleared training or load
	// failure, empty while healthy.
	LastError   string    `json:"last_error,omitempty"`
	LastErrorAt time.Time `json:"last_error_at,omitzero"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.met.stats.requests.Add(1)
	snap := metricsSnapshot{
		UptimeSeconds: time.Since(s.met.start).Seconds(),
		Requests: map[string]routeSnapshot{
			"predict":    s.met.predict.snapshot(),
			"ingest":     s.met.ingest.snapshot(),
			"model_swap": s.met.swap.snapshot(),
			"model_info": s.met.info.snapshot(),
			"models":     s.met.list.snapshot(),
			"healthz":    s.met.health.snapshot(),
			"metrics":    s.met.stats.snapshot(),
		},
		PredictionsTotal: s.met.predictions.Load(),
		PredictLatencyUS: s.met.latencyUS.snapshot(),
		PredictBatchRows: s.met.batchRows.snapshot(),
		Models:           make(map[string]modelCounters),
	}
	if bm := s.buildMon.Load(); bm != nil {
		snap.Build = buildStatusFrom(bm)
	}
	if st := s.ing.Load(); st != nil {
		snap.Ingest = st.snapshot()
	}
	if a := s.adm.Load(); a != nil {
		snap.Batching = &batchingSnapshot{
			QueueCap:      a.cap,
			QueueDepth:    a.inflight.Load(),
			ShedTotal:     s.met.shed.Load(),
			CoalescedRows: snap.PredictBatchRows,
		}
	}
	s.mu.RLock()
	for name, sl := range s.models {
		mc := modelCounters{
			Predictions: sl.predictions.Load(),
			Swaps:       sl.swaps.Load(),
		}
		if cur := sl.ptr.Load(); cur != nil {
			mc.LoadedAt = cur.loadedAt
			mc.Source = cur.source
		}
		if f := sl.failure.Load(); f != nil {
			mc.LastError = f.msg
			mc.LastErrorAt = f.at
			snap.Degraded = true
		}
		snap.Models[name] = mc
	}
	s.mu.RUnlock()
	writeJSON(w, http.StatusOK, snap)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.met.list.requests.Add(1)
	type entry struct {
		Name        string    `json:"name"`
		LoadedAt    time.Time `json:"loaded_at"`
		Source      string    `json:"source,omitempty"`
		Predictions int64     `json:"predictions"`
		Swaps       int64     `json:"swaps"`
	}
	var out []entry
	s.mu.RLock()
	for name, sl := range s.models {
		cur := sl.ptr.Load()
		if cur == nil {
			continue
		}
		out = append(out, entry{
			Name: name, LoadedAt: cur.loadedAt, Source: cur.source,
			Predictions: sl.predictions.Load(), Swaps: sl.swaps.Load(),
		})
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	writeJSON(w, http.StatusOK, map[string]any{"models": out})
}

// attrInfo is the schema exposure cmd/loadgen uses to synthesize rows.
type attrInfo struct {
	Name       string   `json:"name"`
	Kind       string   `json:"kind"`
	Categories []string `json:"categories,omitempty"`
}

// ModelInfo is the GET /model/{name} document.
type ModelInfo struct {
	Name        string    `json:"name"`
	LoadedAt    time.Time `json:"loaded_at"`
	Source      string    `json:"source,omitempty"`
	Predictions int64     `json:"predictions"`
	Swaps       int64     `json:"swaps"`
	Stats       struct {
		Nodes             int `json:"nodes"`
		Leaves            int `json:"leaves"`
		Levels            int `json:"levels"`
		MaxLeavesPerLevel int `json:"max_leaves_per_level"`
	} `json:"stats"`
	// Trees is the ensemble size when > 1 (forest models).
	Trees int `json:"trees,omitempty"`
	// OOB is a forest's out-of-bag error estimate (fraction of scored
	// training rows misclassified by the members whose bootstrap left them
	// out); absent for single trees and forests without an estimate.
	OOB *float64 `json:"oob,omitempty"`
	// OOBRows is how many training rows the estimate scored.
	OOBRows int        `json:"oob_rows,omitempty"`
	Classes []string   `json:"classes"`
	Attrs   []attrInfo `json:"attrs"`
	Rules   []string   `json:"rules,omitempty"`
}

func (s *Server) handleModelInfo(w http.ResponseWriter, r *http.Request) {
	rs := &s.met.info
	rs.requests.Add(1)
	name := r.PathValue("name")
	sl, cur := s.current(name)
	if cur == nil {
		writeErr(w, rs, http.StatusNotFound, "no model %q", name)
		return
	}
	info := ModelInfo{
		Name: name, LoadedAt: cur.loadedAt, Source: cur.source,
		Predictions: sl.predictions.Load(), Swaps: sl.swaps.Load(),
	}
	st := cur.model.Stats()
	info.Stats.Nodes = st.Nodes
	info.Stats.Leaves = st.Leaves
	info.Stats.Levels = st.Levels
	info.Stats.MaxLeavesPerLevel = st.MaxLeavesPerLevel
	if nt := cur.model.NumTrees(); nt > 1 {
		info.Trees = nt
	}
	if om, ok := cur.model.(interface {
		OOBError() (float64, bool)
		OOBRows() int
	}); ok {
		if oob, ok := om.OOBError(); ok {
			info.OOB = &oob
			info.OOBRows = om.OOBRows()
		}
	}
	schema := cur.model.Schema()
	info.Classes = append(info.Classes, schema.Classes...)
	for i := range schema.Attrs {
		a := &schema.Attrs[i]
		kind := "continuous"
		if a.Kind == dataset.Categorical {
			kind = "categorical"
		}
		info.Attrs = append(info.Attrs, attrInfo{Name: a.Name, Kind: kind, Categories: a.Categories})
	}
	// Rules rendering is single-tree only; forests omit the field.
	if r.URL.Query().Get("rules") == "1" {
		if rm, ok := cur.model.(interface{ Rules() []string }); ok {
			info.Rules = rm.Rules()
		}
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleModelSwap(w http.ResponseWriter, r *http.Request) {
	rs := &s.met.swap
	rs.requests.Add(1)
	name := r.PathValue("name")
	// ReadModel itself rejects trailing garbage after the model document
	// (tree.Read requires io.EOF after the first JSON value). With a swap
	// hook installed the body is buffered first so the hook receives the
	// exact uploaded artifact bytes; model uploads are rare, so the extra
	// copy is off every hot path.
	var (
		m   parclass.Predictor
		raw []byte
		err error
	)
	body := http.MaxBytesReader(w, r.Body, maxModelBytes)
	if s.swapHook.Load() != nil {
		if raw, err = io.ReadAll(body); err == nil {
			m, err = parclass.ReadModel(bytes.NewReader(raw))
		}
	} else {
		m, err = parclass.ReadModel(body)
	}
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeErr(w, rs, http.StatusRequestEntityTooLarge,
				"model body exceeds %d bytes", mbe.Limit)
			return
		}
		writeErr(w, rs, http.StatusBadRequest, "loading model: %v", err)
		return
	}
	source := "upload from " + r.RemoteAddr
	swapped, err := s.Load(name, m, source)
	if err != nil {
		writeErr(w, rs, http.StatusBadRequest, "compiling model: %v", err)
		return
	}
	s.firePublish(name, m, raw, source)
	st := m.Stats()
	writeJSON(w, http.StatusOK, map[string]any{
		"name":    name,
		"swapped": swapped,
		"nodes":   st.Nodes,
		"leaves":  st.Leaves,
		"levels":  st.Levels,
	})
}

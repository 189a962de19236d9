package serve

// The online-learning endpoint and retrain loop. POST /v1/ingest appends
// labeled rows to a per-model bounded window (internal/ingest.Window); the
// retrain loop periodically rebuilds a candidate on the window with the
// HIST engine and hot-swaps it in only when it beats the serving model on
// the window's held-out slice (the accuracy tripwire). GET /v1/metrics
// gains an "ingest" section: window sizes, ingested rows/s, retrain cycle
// counts and the last swap/reject decision.

import (
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	parclass "repro"
	"repro/internal/dataset"
	"repro/internal/ingest"
)

// DefaultIngestWindow is the default per-model window capacity (rows).
const DefaultIngestWindow = 20000

// IngestConfig configures Server.EnableIngest.
type IngestConfig struct {
	// WindowCap is the per-model labeled-row window capacity (default
	// DefaultIngestWindow). Once full, new rows evict the oldest.
	WindowCap int
}

// ingestState is the live ingest subsystem, nil until EnableIngest.
type ingestState struct {
	cfg     IngestConfig
	started time.Time

	mu      sync.Mutex
	windows map[string]*ingest.Window

	ingested atomic.Int64
	meter    rateMeter

	cycles, swaps, rejects, skips, stales atomic.Int64

	// swapGate, when non-nil (tests only), runs after a retrain cycle has
	// decided to swap but before the guarded publish — the window in which
	// a concurrent schema-changing hot swap can land. Tests use it to make
	// the race deterministic.
	swapGate func()

	lastMu sync.Mutex
	last   *retrainRecord
}

// retrainRecord is the most recent retrain decision, for /metrics.
type retrainRecord struct {
	at         time.Time
	outcome    ingest.Outcome
	windowRows int
	candAcc    float64
	servAcc    float64
	trainSecs  float64
}

// EnableIngest turns on POST /v1/ingest and the RetrainOnce machinery.
// Call once, before serving.
func (s *Server) EnableIngest(cfg IngestConfig) error {
	if cfg.WindowCap <= 0 {
		cfg.WindowCap = DefaultIngestWindow
	}
	st := &ingestState{
		cfg:     cfg,
		started: time.Now(),
		windows: make(map[string]*ingest.Window),
	}
	if !s.ing.CompareAndSwap(nil, st) {
		return fmt.Errorf("serve: ingest already enabled")
	}
	return nil
}

// windowFor returns name's window, creating it bound to schema on first
// use. A window whose schema no longer matches the serving model (a swap
// installed a differently-shaped model) is discarded and recreated empty:
// its rows were validated against a schema the serving stack no longer
// speaks, so neither ingest validation nor retrain evaluation can use them.
func (st *ingestState) windowFor(name string, schema *dataset.Schema) (*ingest.Window, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if w := st.windows[name]; w != nil && sameSchema(w.Schema(), schema) {
		return w, nil
	}
	w, err := ingest.NewWindow(schema, st.cfg.WindowCap)
	if err != nil {
		return nil, err
	}
	st.windows[name] = w
	return w, nil
}

// sameSchema reports structural equality of two schemas.
func sameSchema(a, b *dataset.Schema) bool {
	if a == b {
		return true
	}
	if len(a.Attrs) != len(b.Attrs) || len(a.Classes) != len(b.Classes) {
		return false
	}
	for i := range a.Classes {
		if a.Classes[i] != b.Classes[i] {
			return false
		}
	}
	for i := range a.Attrs {
		x, y := &a.Attrs[i], &b.Attrs[i]
		if x.Name != y.Name || x.Kind != y.Kind || len(x.Categories) != len(y.Categories) {
			return false
		}
		for j := range x.Categories {
			if x.Categories[j] != y.Categories[j] {
				return false
			}
		}
	}
	return true
}

// ingestRow is one labeled row of the bulk form.
type ingestRow struct {
	// Values is one string per schema attribute, in schema order (the same
	// positional form as predict's "values").
	Values []string `json:"values"`
	// Class is the row's ground-truth label.
	Class string `json:"class"`
}

// ingestRequest is the POST /v1/ingest body: either one row
// ("values" + "class") or a batch ("rows"), plus an optional model name.
// As with predictRequest, the json tags name the keys decodeIngest matches.
type ingestRequest struct {
	Model  string      `json:"model,omitempty"`
	Values []string    `json:"values,omitempty"`
	Class  string      `json:"class,omitempty"`
	Rows   []ingestRow `json:"rows,omitempty"`
}

// ingestResponse is the POST /v1/ingest reply.
type ingestResponse struct {
	Model string `json:"model"`
	// Accepted is how many rows this request appended.
	Accepted int `json:"accepted"`
	// WindowSize / WindowTotal are the window's row count after the append
	// and the all-time ingested count (Total keeps growing after Size caps
	// out at the window capacity).
	WindowSize  int   `json:"window_size"`
	WindowTotal int64 `json:"window_total"`
}

// handleIngest appends labeled rows to the model's window. The body
// contract matches predict: same byte cap (413 over it), one JSON document
// (400 on trailing data), 404 for an unknown model, 422 with "row %d:"
// attribution for rows that fail schema validation. A bulk request is
// all-or-nothing: every row is validated before any row lands.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	rs := &s.met.ingest
	rs.requests.Add(1)
	st := s.ing.Load()
	if st == nil {
		writeErr(w, rs, http.StatusServiceUnavailable, "ingest not enabled on this server")
		return
	}
	body, ok := s.readBody(w, r, rs)
	if !ok {
		return
	}
	var req ingestRequest
	if err := decodeIngest(body, &req); err != nil {
		writeErr(w, rs, http.StatusBadRequest, "%v", err)
		return
	}
	single := len(req.Values) > 0
	if single == (len(req.Rows) > 0) {
		writeErr(w, rs, http.StatusBadRequest, `need exactly one of "values" and "rows"`)
		return
	}
	if single && req.Class == "" {
		writeErr(w, rs, http.StatusBadRequest, `"values" needs a "class" label`)
		return
	}
	name := req.Model
	if name == "" {
		name = s.defaultModel
	}
	_, cur := s.current(name)
	if cur == nil {
		writeErr(w, rs, http.StatusNotFound, "no model %q", name)
		return
	}
	win, err := st.windowFor(name, cur.model.Schema())
	if err != nil {
		writeErr(w, rs, http.StatusInternalServerError, "%v", err)
		return
	}
	if single {
		tu, err := win.Decode(req.Values, req.Class)
		if err != nil {
			writeErr(w, rs, http.StatusUnprocessableEntity, "%v", err)
			return
		}
		win.Append(tu)
		st.ingested.Add(1)
		st.meter.add(1)
		writeJSON(w, http.StatusOK, ingestResponse{
			Model: name, Accepted: 1, WindowSize: win.Size(), WindowTotal: win.Total(),
		})
		return
	}
	tus := make([]dataset.Tuple, len(req.Rows))
	for i, row := range req.Rows {
		tu, err := win.Decode(row.Values, row.Class)
		if err != nil {
			writeErr(w, rs, http.StatusUnprocessableEntity, "row %d: %v", i, err)
			return
		}
		tus[i] = tu
	}
	win.AppendRows(tus)
	n := int64(len(tus))
	st.ingested.Add(n)
	st.meter.add(n)
	writeJSON(w, http.StatusOK, ingestResponse{
		Model: name, Accepted: len(tus), WindowSize: win.Size(), WindowTotal: win.Total(),
	})
}

// RetrainOnce runs one retrain-with-tripwire cycle for name: snapshot the
// window, train a candidate, and hot-swap it in only when it beats the
// serving model on the held-out slice. The returned result says what
// happened; training errors are also recorded as model failures (degraded
// health), matching background-build semantics. Deterministic — the
// periodic loop (StartRetrainLoop) is just this on a ticker.
func (s *Server) RetrainOnce(name string, cfg ingest.RetrainConfig) (ingest.Result, error) {
	st := s.ing.Load()
	if st == nil {
		return ingest.Result{}, fmt.Errorf("serve: ingest not enabled")
	}
	if name == "" {
		name = s.defaultModel
	}
	_, cur := s.current(name)
	if cur == nil {
		return ingest.Result{}, fmt.Errorf("serve: no model %q", name)
	}
	win, err := st.windowFor(name, cur.model.Schema())
	if err != nil {
		return ingest.Result{}, err
	}
	st.cycles.Add(1)
	res, err := ingest.Retrain(win, cur.model, cfg)
	if err != nil {
		s.RecordFailure(name, err)
		return res, err
	}
	switch res.Outcome {
	case ingest.OutcomeSwapped:
		if st.swapGate != nil {
			st.swapGate()
		}
		src := fmt.Sprintf("retrain on %d-row window (holdout %.4f > %.4f)",
			res.TrainRows, res.CandidateAcc, res.ServingAcc)
		// Publish through the guarded load: the candidate trained on rows
		// validated against the window's schema, so it may only replace a
		// serving model that STILL speaks that schema. Re-checking here —
		// atomically against the registry pointer — closes the race where a
		// schema-changing hot swap lands between Window.Snapshot and this
		// publish: the old unconditional Load would have clobbered the new
		// model with a candidate from the previous schema's world.
		trainSchema := win.Schema()
		_, lerr := s.loadGuarded(name, res.Candidate, src, func(old parclass.Predictor) bool {
			return old != nil && sameSchema(old.Schema(), trainSchema)
		})
		switch {
		case errors.Is(lerr, errStaleGuard):
			res.Outcome = ingest.OutcomeStale
			res.Candidate = nil
			st.stales.Add(1)
		case lerr != nil:
			s.RecordFailure(name, lerr)
			return res, lerr
		default:
			st.swaps.Add(1)
			s.firePublish(name, res.Candidate, nil, src)
		}
	case ingest.OutcomeRejected:
		st.rejects.Add(1)
	default:
		st.skips.Add(1)
	}
	st.lastMu.Lock()
	st.last = &retrainRecord{
		at: time.Now(), outcome: res.Outcome, windowRows: res.WindowRows,
		candAcc: res.CandidateAcc, servAcc: res.ServingAcc, trainSecs: res.TrainSecs,
	}
	st.lastMu.Unlock()
	return res, nil
}

// StartRetrainLoop runs RetrainOnce for name every interval until the
// returned stop function is called. Per-cycle errors are recorded on the
// model (degraded health) and the loop keeps going — a transient training
// failure must not end online learning.
func (s *Server) StartRetrainLoop(name string, interval time.Duration, cfg ingest.RetrainConfig) (stop func()) {
	done := make(chan struct{})
	var once sync.Once
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.RetrainOnce(name, cfg)
			case <-done:
				return
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

// ingestWindowSnapshot is one window's /metrics entry.
type ingestWindowSnapshot struct {
	Size     int   `json:"size"`
	Capacity int   `json:"capacity"`
	Total    int64 `json:"total"`
}

// retrainSnapshot is the /metrics retrain section: cycle counters plus the
// last decision's evidence (candidate vs serving holdout accuracy).
type retrainSnapshot struct {
	Cycles  int64 `json:"cycles"`
	Swaps   int64 `json:"swaps"`
	Rejects int64 `json:"rejects"`
	Skips   int64 `json:"skips"`
	// Stales counts winning candidates dropped because a schema-changing
	// hot swap landed mid-retrain (see ingest.OutcomeStale).
	Stales int64 `json:"stales,omitempty"`

	LastOutcome           string    `json:"last_outcome,omitempty"`
	LastCandidateAccuracy float64   `json:"last_candidate_accuracy,omitempty"`
	LastServingAccuracy   float64   `json:"last_serving_accuracy,omitempty"`
	LastWindowRows        int       `json:"last_window_rows,omitempty"`
	LastTrainSeconds      float64   `json:"last_train_seconds,omitempty"`
	LastAt                time.Time `json:"last_at,omitzero"`
}

// ingestSnapshot is the /metrics ingest section.
type ingestSnapshot struct {
	WindowCapacity int `json:"window_capacity"`
	// IngestedTotal counts rows accepted since EnableIngest; RowsPerSec is
	// the ingest rate over the trailing rate window (rateWindowSecs).
	IngestedTotal int64                           `json:"ingested_total"`
	RowsPerSec    float64                         `json:"rows_per_sec"`
	Windows       map[string]ingestWindowSnapshot `json:"windows"`
	Retrain       retrainSnapshot                 `json:"retrain"`
}

// snapshot renders the ingest section.
func (st *ingestState) snapshot() *ingestSnapshot {
	snap := &ingestSnapshot{
		WindowCapacity: st.cfg.WindowCap,
		IngestedTotal:  st.ingested.Load(),
		RowsPerSec:     st.meter.rate(time.Since(st.started)),
		Windows:        make(map[string]ingestWindowSnapshot),
		Retrain: retrainSnapshot{
			Cycles:  st.cycles.Load(),
			Swaps:   st.swaps.Load(),
			Rejects: st.rejects.Load(),
			Skips:   st.skips.Load(),
			Stales:  st.stales.Load(),
		},
	}
	st.mu.Lock()
	for name, w := range st.windows {
		snap.Windows[name] = ingestWindowSnapshot{
			Size: w.Size(), Capacity: w.Capacity(), Total: w.Total(),
		}
	}
	st.mu.Unlock()
	st.lastMu.Lock()
	if l := st.last; l != nil {
		snap.Retrain.LastOutcome = string(l.outcome)
		snap.Retrain.LastCandidateAccuracy = l.candAcc
		snap.Retrain.LastServingAccuracy = l.servAcc
		snap.Retrain.LastWindowRows = l.windowRows
		snap.Retrain.LastTrainSeconds = l.trainSecs
		snap.Retrain.LastAt = l.at
	}
	st.lastMu.Unlock()
	return snap
}

package loadtest

// Drift scenario driver: stream labeled rows with a mid-stream concept
// flip into POST /v1/ingest while probing the served model's accuracy on
// the freshest labels, and measure how long the server's retrain loop
// takes to recover. The engine behind `loadgen -drift`; the deterministic
// in-process version of the scenario is internal/serve's TestDriftRecovery.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/dataset"
	"repro/internal/synth"
)

// DriftConfig describes one drift run against a live server. The synth
// stream supplies both the ingest feed and the ground truth for probes.
type DriftConfig struct {
	BaseURL string
	Model   string // registry model name; "" means default

	// Synth generates the labeled stream. Set DriftFunction/DriftAt for a
	// concept flip; Tuples bounds the run.
	Synth synth.Config

	// BatchRows is rows per bulk ingest request (default 250).
	BatchRows int
	// ProbeEvery probes served accuracy after every this-many ingested
	// rows (default: BatchRows, i.e. after every ingest request).
	ProbeEvery int
	// ProbeRows is the probe size: the freshest this-many labeled rows are
	// re-sent through /v1/predict and scored (default 500).
	ProbeRows int
	// Tolerance defines recovery: once a post-drift probe has dipped below
	// pre-drift accuracy minus Tolerance, the first probe climbing back
	// above that line marks the recovery point (default 0.02).
	Tolerance float64
	// Pace, when > 0, sleeps this long after each ingest batch. An
	// unpaced run can stream the whole scenario before a periodic retrain
	// loop ever fires; pacing gives the server wall time to react, the
	// way a real feed would.
	Pace time.Duration

	Client *http.Client
}

// DriftPoint is one accuracy probe: served accuracy on the freshest
// ProbeRows labels after Row rows had been ingested.
type DriftPoint struct {
	Row      int     `json:"row"`
	Accuracy float64 `json:"accuracy"`
}

// DriftResult is one drift run's measurements.
type DriftResult struct {
	Points []DriftPoint `json:"points,omitempty"`

	// PreDriftAcc is the last probe before the concept flip; MinPostAcc is
	// the deepest post-flip probe — the crater the flip dug.
	PreDriftAcc float64 `json:"pre_drift_acc"`
	MinPostAcc  float64 `json:"min_post_acc"`

	// RecoveredAtRow is the ingested-row count at the first probe back
	// within Tolerance of PreDriftAcc *after* a probe had dipped below
	// that line, -1 if the run ended un-recovered. Requiring the dip first
	// keeps probe-window lag from declaring recovery before the crater:
	// right after the flip the probe window still holds mostly old-concept
	// rows, so the first post-flip probes can score spuriously high. If no
	// probe ever dips, the flip never measurably hurt the served model and
	// recovery is reported at the flip row itself. RecoverySecs is the
	// wall time from the flip to the recovery probe.
	RecoveredAtRow int     `json:"recovered_at_row"`
	RecoverySecs   float64 `json:"recovery_secs"`

	RowsIngested int64   `json:"rows_ingested"`
	Elapsed      float64 `json:"elapsed_secs"`
	IngestPerSec float64 `json:"ingest_rows_per_sec"`

	// Retrain counters scraped from GET /v1/metrics after the run.
	Retrains int64 `json:"retrains"`
	Swaps    int64 `json:"swaps"`
	Rejects  int64 `json:"rejects"`
}

// tupleValues renders a streamer tuple as the positional wire form.
func tupleValues(schema *dataset.Schema, tu dataset.Tuple) []string {
	vals := make([]string, len(schema.Attrs))
	for a := range schema.Attrs {
		if schema.Attrs[a].Kind == dataset.Continuous {
			vals[a] = strconv.FormatFloat(tu.Cont[a], 'g', -1, 64)
		} else {
			vals[a] = schema.Attrs[a].Categories[tu.Cat[a]]
		}
	}
	return vals
}

// ingest wire forms (mirror internal/serve).
type ingestRow struct {
	Values []string `json:"values"`
	Class  string   `json:"class"`
}

type ingestRequest struct {
	Model string      `json:"model,omitempty"`
	Rows  []ingestRow `json:"rows,omitempty"`
}

func (c *DriftConfig) post(path string, req, resp any) error {
	buf, err := json.Marshal(req)
	if err != nil {
		return err
	}
	r, err := c.Client.Post(c.BaseURL+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		return err
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		var doc struct {
			Error string `json:"error"`
		}
		json.NewDecoder(r.Body).Decode(&doc)
		return fmt.Errorf("POST %s: %s: %s", path, r.Status, doc.Error)
	}
	if resp == nil {
		return nil
	}
	return json.NewDecoder(r.Body).Decode(resp)
}

// probe classifies rows through /v1/predict and scores them against their
// stream labels.
func (c *DriftConfig) probe(rows [][]string, labels []string) (float64, error) {
	req := predictRequest{Model: c.Model, ValuesRows: rows}
	var resp struct {
		Predictions []string `json:"predictions"`
	}
	if err := c.post("/v1/predict", req, &resp); err != nil {
		return 0, err
	}
	if len(resp.Predictions) != len(labels) {
		return 0, fmt.Errorf("probe returned %d predictions for %d rows", len(resp.Predictions), len(labels))
	}
	hit := 0
	for i, p := range resp.Predictions {
		if p == labels[i] {
			hit++
		}
	}
	return float64(hit) / float64(len(labels)), nil
}

// RunDrift executes one drift scenario. The server must have ingest
// enabled and a retrain loop running; RunDrift only feeds and observes.
func RunDrift(cfg DriftConfig) (*DriftResult, error) {
	if cfg.BatchRows <= 0 {
		cfg.BatchRows = 250
	}
	if cfg.ProbeEvery <= 0 {
		cfg.ProbeEvery = cfg.BatchRows
	}
	if cfg.ProbeRows <= 0 {
		cfg.ProbeRows = 500
	}
	if cfg.Tolerance <= 0 {
		cfg.Tolerance = 0.02
	}
	if cfg.Client == nil {
		cfg.Client = http.DefaultClient
	}
	st, err := synth.NewStreamer(cfg.Synth)
	if err != nil {
		return nil, err
	}
	schema := st.Schema()

	res := &DriftResult{RecoveredAtRow: -1, MinPostAcc: 1}
	dipped := false
	// freshVals/freshLabels hold the ProbeRows most recent rows.
	var freshVals [][]string
	var freshLabels []string
	var driftStart time.Time
	start := time.Now()
	sent, sinceProbe := 0, 0
	for sent < cfg.Synth.Tuples {
		n := cfg.BatchRows
		if rem := cfg.Synth.Tuples - sent; rem < n {
			n = rem
		}
		req := ingestRequest{Model: cfg.Model, Rows: make([]ingestRow, 0, n)}
		for len(req.Rows) < n {
			tu, ok := st.Next()
			if !ok {
				break
			}
			vals := tupleValues(schema, tu)
			label := schema.Classes[tu.Class]
			req.Rows = append(req.Rows, ingestRow{Values: vals, Class: label})
			freshVals = append(freshVals, vals)
			freshLabels = append(freshLabels, label)
		}
		if len(req.Rows) == 0 {
			break
		}
		if over := len(freshVals) - cfg.ProbeRows; over > 0 {
			freshVals = freshVals[over:]
			freshLabels = freshLabels[over:]
		}
		if err := cfg.post("/v1/ingest", req, nil); err != nil {
			return nil, err
		}
		if cfg.Pace > 0 {
			time.Sleep(cfg.Pace)
		}
		crossedDrift := cfg.Synth.DriftAt > 0 && sent < cfg.Synth.DriftAt && sent+len(req.Rows) >= cfg.Synth.DriftAt
		if crossedDrift {
			driftStart = time.Now()
		}
		sent += len(req.Rows)
		res.RowsIngested = int64(sent)
		sinceProbe += len(req.Rows)
		if sinceProbe < cfg.ProbeEvery && sent < cfg.Synth.Tuples {
			continue
		}
		sinceProbe = 0
		acc, err := cfg.probe(freshVals, freshLabels)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, DriftPoint{Row: sent, Accuracy: acc})
		preDrift := cfg.Synth.DriftAt <= 0 || sent <= cfg.Synth.DriftAt
		if preDrift {
			res.PreDriftAcc = acc
			continue
		}
		if acc < res.MinPostAcc {
			res.MinPostAcc = acc
		}
		if acc < res.PreDriftAcc-cfg.Tolerance {
			dipped = true
		} else if dipped && res.RecoveredAtRow < 0 {
			res.RecoveredAtRow = sent
			res.RecoverySecs = time.Since(driftStart).Seconds()
		}
	}
	if cfg.Synth.DriftAt > 0 && !dipped && res.RecoveredAtRow < 0 {
		// No probe ever left the tolerance band: the flip never measurably
		// hurt the served model.
		res.RecoveredAtRow = cfg.Synth.DriftAt
	}
	res.Elapsed = time.Since(start).Seconds()
	if res.Elapsed > 0 {
		res.IngestPerSec = float64(res.RowsIngested) / res.Elapsed
	}
	if cfg.Synth.DriftAt <= 0 {
		res.MinPostAcc = 0
	}

	// Scrape retrain counters; best-effort — a server without /v1/metrics
	// still yields the accuracy timeline.
	if r, err := cfg.Client.Get(cfg.BaseURL + "/v1/metrics"); err == nil {
		var doc struct {
			Ingest *struct {
				Retrain struct {
					Cycles  int64 `json:"cycles"`
					Swaps   int64 `json:"swaps"`
					Rejects int64 `json:"rejects"`
				} `json:"retrain"`
			} `json:"ingest"`
		}
		json.NewDecoder(r.Body).Decode(&doc)
		r.Body.Close()
		if doc.Ingest != nil {
			res.Retrains = doc.Ingest.Retrain.Cycles
			res.Swaps = doc.Ingest.Retrain.Swaps
			res.Rejects = doc.Ingest.Retrain.Rejects
		}
	}
	return res, nil
}

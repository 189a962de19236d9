// Package loadtest drives a parclass model server with synthetic
// prediction traffic and measures what came back — the engine behind
// cmd/loadgen, the cluster soak and internal/serve's TestOverloadSheds.
//
// Two arrival models:
//
//   - Closed loop (default): Concurrency workers each keep exactly one
//     request in flight. Throughput self-limits to the server's capacity,
//     so overload never shows — the classic closed-loop blind spot.
//   - Open loop (ArrivalRate > 0): requests fire on a fixed schedule
//     regardless of completions, the way real independent clients behave.
//     Driving the rate past capacity makes the server's overload behavior
//     measurable: with admission control it sheds (429, counted separately
//     from errors), without it latency and memory grow without bound.
package loadtest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Config selects the target, the traffic shape and the request form.
type Config struct {
	BaseURL string // e.g. http://localhost:8080
	// BaseURLs switches to fleet mode: requests are consistent-hash routed
	// across these nodes with per-node Retry-After backoff and one retry
	// past transport failures (see fleet.go). Overrides BaseURL when set.
	BaseURLs []string
	Model    string // registry model name; "" means default

	Concurrency int  // closed-loop workers (default 4)
	Batch       int  // rows per request; <= 1 sends single-row forms
	Positional  bool // send values/values_rows instead of name→value maps

	Duration time.Duration // run length (default 10s)
	Requests int           // exact request budget; overrides Duration when > 0

	// ArrivalRate > 0 switches to open-loop mode: requests start every
	// 1/rate seconds on the driver's schedule, independent of completions.
	ArrivalRate float64

	Seed   int64
	Client *http.Client
}

// Result is one run's measurements. Latencies holds every successful
// request's wall time, sorted ascending.
type Result struct {
	OK      int64
	Shed    int64 // 429 responses (admission control), not errors
	Errors  int64 // transport failures and non-200/429 statuses
	FiveXX  int64 // of Errors, 5xx statuses — an admitted request the server failed
	Retries int64 // fleet mode: requests re-routed past a transport failure
	Rows    int64 // rows successfully classified
	Elapsed time.Duration
	// PerNode breaks the counters down by target in fleet mode (nil for a
	// single BaseURL run).
	PerNode   []NodeResult
	Latencies []time.Duration
}

// ReqPerSec is the successful-request rate.
func (r *Result) ReqPerSec() float64 { return float64(r.OK) / r.Elapsed.Seconds() }

// RowsPerSec is the classified-row rate.
func (r *Result) RowsPerSec() float64 { return float64(r.Rows) / r.Elapsed.Seconds() }

// ShedRate is the fraction of attempted requests the server shed with 429.
func (r *Result) ShedRate() float64 {
	total := r.OK + r.Shed + r.Errors
	if total == 0 {
		return 0
	}
	return float64(r.Shed) / float64(total)
}

// Pct returns the p-th latency percentile (0 when nothing succeeded).
func (r *Result) Pct(p float64) time.Duration {
	if len(r.Latencies) == 0 {
		return 0
	}
	i := int(p/100*float64(len(r.Latencies))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(r.Latencies) {
		i = len(r.Latencies) - 1
	}
	return r.Latencies[i]
}

// Mean returns the mean successful-request latency.
func (r *Result) Mean() time.Duration {
	if len(r.Latencies) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range r.Latencies {
		sum += d
	}
	return sum / time.Duration(len(r.Latencies))
}

// Max returns the slowest successful request.
func (r *Result) Max() time.Duration {
	if len(r.Latencies) == 0 {
		return 0
	}
	return r.Latencies[len(r.Latencies)-1]
}

// ModelSchema mirrors the GET /v1/model/{name} fields the row synthesizer
// needs.
type ModelSchema struct {
	Classes []string `json:"classes"`
	Attrs   []struct {
		Name       string   `json:"name"`
		Kind       string   `json:"kind"`
		Categories []string `json:"categories"`
	} `json:"attrs"`
}

// FetchSchema loads the model's schema from the server.
func FetchSchema(baseURL, model string) (*ModelSchema, error) {
	if model == "" {
		model = "default"
	}
	url := baseURL + "/v1/model/" + model
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("GET %s: %s: %s", url, resp.Status, bytes.TrimSpace(body))
	}
	var info ModelSchema
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return nil, err
	}
	if len(info.Attrs) == 0 {
		return nil, fmt.Errorf("model %q exposes no attributes", model)
	}
	return &info, nil
}

// RandomValues synthesizes one positional row in schema attribute order.
func RandomValues(rng *rand.Rand, info *ModelSchema) []string {
	vals := make([]string, len(info.Attrs))
	for i, a := range info.Attrs {
		if a.Kind == "categorical" && len(a.Categories) > 0 {
			vals[i] = a.Categories[rng.Intn(len(a.Categories))]
		} else {
			vals[i] = strconv.FormatFloat(rng.Float64()*200000, 'g', -1, 64)
		}
	}
	return vals
}

// RandomRow synthesizes one name→value row the schema accepts.
func RandomRow(rng *rand.Rand, info *ModelSchema) map[string]string {
	row := make(map[string]string, len(info.Attrs))
	for _, a := range info.Attrs {
		if a.Kind == "categorical" && len(a.Categories) > 0 {
			row[a.Name] = a.Categories[rng.Intn(len(a.Categories))]
		} else {
			row[a.Name] = strconv.FormatFloat(rng.Float64()*200000, 'g', -1, 64)
		}
	}
	return row
}

// predictRequest mirrors the server's request body.
type predictRequest struct {
	Model      string              `json:"model,omitempty"`
	Row        map[string]string   `json:"row,omitempty"`
	Rows       []map[string]string `json:"rows,omitempty"`
	Values     []string            `json:"values,omitempty"`
	ValuesRows [][]string          `json:"values_rows,omitempty"`
}

// body builds one request body per cfg's form.
func body(cfg *Config, rng *rand.Rand, info *ModelSchema) []byte {
	req := predictRequest{Model: cfg.Model}
	switch {
	case cfg.Positional && cfg.Batch <= 1:
		req.Values = RandomValues(rng, info)
	case cfg.Positional:
		req.ValuesRows = make([][]string, cfg.Batch)
		for i := range req.ValuesRows {
			req.ValuesRows[i] = RandomValues(rng, info)
		}
	case cfg.Batch <= 1:
		req.Row = RandomRow(rng, info)
	default:
		req.Rows = make([]map[string]string, cfg.Batch)
		for i := range req.Rows {
			req.Rows[i] = RandomRow(rng, info)
		}
	}
	buf, _ := json.Marshal(req)
	return buf
}

// Run executes one load run against cfg.BaseURL.
func Run(cfg Config) (*Result, error) {
	if cfg.Concurrency < 1 {
		cfg.Concurrency = 4
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 10 * time.Second
	}
	urls := cfg.BaseURLs
	if len(urls) == 0 {
		urls = []string{cfg.BaseURL}
	}
	router := newFleetRouter(urls)
	// Any live node can answer the schema probe; in fleet mode the first
	// node may legitimately be down for a kill-and-restart run.
	var (
		info *ModelSchema
		err  error
	)
	for _, u := range urls {
		if info, err = FetchSchema(u, cfg.Model); err == nil {
			break
		}
	}
	if err != nil {
		return nil, err
	}
	client := cfg.Client
	if client == nil {
		// The default transport keeps only 2 idle conns per host; at high
		// concurrency that churns connections and measures the TCP stack
		// instead of the server.
		client = &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxIdleConns:        cfg.Concurrency + 64,
				MaxIdleConnsPerHost: cfg.Concurrency + 64,
			},
		}
	}
	rowsPerReq := int64(cfg.Batch)
	if rowsPerReq < 1 {
		rowsPerReq = 1
	}

	var (
		ok, shed, errs, fivexx, retries, rows atomic.Int64
		mu                                    sync.Mutex
		lats                                  []time.Duration
	)
	shoot := func(key uint64, buf []byte) {
		t0 := time.Now()
		for attempt := 0; ; attempt++ {
			fn := router.pick(key)
			resp, err := client.Post(fn.url+"/v1/predict", "application/json", bytes.NewReader(buf))
			if err != nil {
				// Transport failure: the node is likely dead or restarting.
				// Penalize it so pick probes elsewhere, and retry this request
				// once — a killed peer should cost a failover, not an error.
				fn.markDown()
				if attempt == 0 && len(router.nodes) > 1 {
					retries.Add(1)
					continue
				}
				fn.errs.Add(1)
				errs.Add(1)
				return
			}
			retryAfter := resp.Header.Get("Retry-After")
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			switch {
			case resp.StatusCode == http.StatusOK:
				d := time.Since(t0)
				ok.Add(1)
				fn.ok.Add(1)
				rows.Add(rowsPerReq)
				mu.Lock()
				lats = append(lats, d)
				mu.Unlock()
			case resp.StatusCode == http.StatusTooManyRequests:
				// Admission control: honor the node's Retry-After so routing
				// stays away exactly as long as the server asked. The request
				// itself is shed, not re-aimed — in open loop the schedule,
				// not the client's persistence, defines offered load.
				fn.markBackoff(retryAfter)
				shed.Add(1)
				fn.shed.Add(1)
			case resp.StatusCode >= 500:
				fivexx.Add(1)
				fn.fivexx.Add(1)
				errs.Add(1)
				fn.errs.Add(1)
			default:
				errs.Add(1)
				fn.errs.Add(1)
			}
			return
		}
	}

	start := time.Now()
	deadline := start.Add(cfg.Duration)
	var wg sync.WaitGroup
	if cfg.ArrivalRate > 0 {
		// Open loop: fire on schedule, one goroutine per request.
		interval := time.Duration(float64(time.Second) / cfg.ArrivalRate)
		rng := rand.New(rand.NewSource(cfg.Seed))
		next := start
		for seq := 0; ; seq++ {
			if cfg.Requests > 0 {
				if seq >= cfg.Requests {
					break
				}
			} else if time.Now().After(deadline) {
				break
			}
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			}
			next = next.Add(interval)
			buf := body(&cfg, rng, info)
			key := uint64(seq)
			wg.Add(1)
			go func() {
				defer wg.Done()
				shoot(key, buf)
			}()
		}
	} else {
		// Closed loop: each worker keeps one request in flight.
		var seq, reqKey atomic.Int64
		budget := int64(cfg.Requests)
		for w := 0; w < cfg.Concurrency; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(cfg.Seed + int64(w)))
				for {
					if budget > 0 {
						if seq.Add(1) > budget {
							return
						}
					} else if time.Now().After(deadline) {
						return
					}
					shoot(uint64(reqKey.Add(1)), body(&cfg, rng, info))
				}
			}(w)
		}
	}
	wg.Wait()

	res := &Result{
		OK:        ok.Load(),
		Shed:      shed.Load(),
		Errors:    errs.Load(),
		FiveXX:    fivexx.Load(),
		Retries:   retries.Load(),
		Rows:      rows.Load(),
		Elapsed:   time.Since(start),
		Latencies: lats,
	}
	if len(cfg.BaseURLs) > 0 {
		res.PerNode = router.perNode()
	}
	sort.Slice(res.Latencies, func(i, j int) bool { return res.Latencies[i] < res.Latencies[j] })
	return res, nil
}

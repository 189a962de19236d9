// Command loadgen drives a running parclassd with synthetic prediction
// traffic and reports latency percentiles, throughput and shed rate — the
// measuring third of the train→serve→measure loop (the driver itself lives
// in internal/loadtest, shared with `benchjson -serve`).
//
// It fetches GET /v1/model/{name} to learn the model's schema, synthesizes
// random rows over that schema, and sends POST /v1/predict requests either
// closed-loop (-concurrency workers, each one request in flight) or
// open-loop (-arrival N requests/second on a fixed schedule, independent
// of completions). The open-loop mode is the one that can overload the
// server: past capacity, a server with admission control sheds requests
// with 429 — reported here as the shed rate — instead of queueing without
// bound.
//
// Usage:
//
//	loadgen -url http://localhost:8080 -concurrency 8 -batch 64 -duration 10s
//	loadgen -positional -batch 16                      # the server's fast path
//	loadgen -arrival 2000 -batch 16 -duration 10s      # open loop, 2000 req/s
//	loadgen -no-batch                                  # opt out of micro-batching
//	loadgen -urls http://h1:8081,http://h2:8082        # fleet mode: consistent-hash
//	                                                   # routing + per-node backpressure
//
// Drift mode streams labeled rows with a mid-stream concept flip into
// POST /v1/ingest (the server must run with ingest and a retrain loop
// enabled) while probing served accuracy, and reports the time the
// server's retrain loop took to recover:
//
//	loadgen -drift -drift-rows 12000 -drift-at 3000    # F1→F7 flip at row 3000
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"repro/internal/loadtest"
	"repro/internal/synth"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("loadgen: ")
	var (
		baseURL = flag.String("url", "http://localhost:8080", "parclassd base URL")
		urls    = flag.String("urls", "",
			"comma-separated fleet base URLs (overrides -url): requests route by consistent hash with per-node Retry-After backpressure and dead-node failover")
		model       = flag.String("model", "default", "model name to drive")
		concurrency = flag.Int("concurrency", 4, "concurrent request workers (closed loop)")
		batch       = flag.Int("batch", 32, "rows per request (1 sends single-row requests)")
		duration    = flag.Duration("duration", 10*time.Second, "how long to run")
		requests    = flag.Int("requests", 0, "stop after exactly this many requests (overrides -duration)")
		seed        = flag.Int64("seed", 1, "row generator seed")
		positional  = flag.Bool("positional", false,
			"send positional values/values_rows instead of name→value maps (the server's fast path)")
		arrival = flag.Float64("arrival", 0,
			"open-loop arrival rate in requests/second (0 = closed loop); past server capacity this measures shedding")
		noBatch = flag.Bool("no-batch", false,
			`set "no_batch" on every request so the server skips micro-batch coalescing`)
		drift = flag.Bool("drift", false,
			"stream a drifting labeled feed into /v1/ingest and measure the retrain loop's time-to-recover (see -drift-* flags)")
		driftFn   = flag.Int("drift-fn", 1, "classification function labeling rows before the flip")
		driftToFn = flag.Int("drift-to", 7, "classification function labeling rows after the flip")
		driftRows = flag.Int("drift-rows", 12000, "total labeled rows to stream in -drift mode")
		driftAt   = flag.Int("drift-at", 3000, "row offset of the concept flip")
		driftPace = flag.Duration("drift-pace", 50*time.Millisecond,
			"sleep between ingest batches, giving the server's retrain loop wall time to react")
	)
	flag.Parse()

	if *drift {
		runDrift(*baseURL, *model, *driftFn, *driftToFn, *driftRows, *driftAt, *batch, *seed, *driftPace)
		return
	}

	var fleet []string
	for _, u := range strings.Split(*urls, ",") {
		if u = strings.TrimSpace(u); u != "" {
			fleet = append(fleet, strings.TrimSuffix(u, "/"))
		}
	}
	cfg := loadtest.Config{
		BaseURL:     *baseURL,
		BaseURLs:    fleet,
		Model:       *model,
		Concurrency: *concurrency,
		Batch:       *batch,
		Positional:  *positional,
		NoBatch:     *noBatch,
		Duration:    *duration,
		Requests:    *requests,
		ArrivalRate: *arrival,
		Seed:        *seed,
	}
	target := *baseURL
	if len(fleet) > 0 {
		target = fmt.Sprintf("%d-node fleet %s", len(fleet), strings.Join(fleet, ","))
	}
	schemaURL := *baseURL
	if len(fleet) > 0 {
		schemaURL = fleet[0]
	}
	info, err := loadtest.FetchSchema(schemaURL, *model)
	if err != nil {
		log.Fatalf("fetching model schema: %v", err)
	}
	mode := fmt.Sprintf("closed loop, concurrency=%d", *concurrency)
	if *arrival > 0 {
		mode = fmt.Sprintf("open loop, arrival=%.0f req/s", *arrival)
	}
	log.Printf("driving %s model=%s: %d attrs, %d classes, batch=%d, %s",
		target, *model, len(info.Attrs), len(info.Classes), *batch, mode)

	res, err := loadtest.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if res.OK == 0 {
		log.Fatalf("no successful requests (%d shed, %d errors)", res.Shed, res.Errors)
	}
	fmt.Printf("requests: %d ok, %d shed (429), %d errors in %v\n",
		res.OK, res.Shed, res.Errors, res.Elapsed.Round(time.Millisecond))
	fmt.Printf("throughput: %s rows/s (%s req/s ok)\n",
		fmtRate(res.RowsPerSec()), fmtRate(res.ReqPerSec()))
	if res.Shed > 0 {
		fmt.Printf("shed rate: %.1f%% of attempted requests\n", 100*res.ShedRate())
	}
	fmt.Printf("latency: mean=%v p50=%v p95=%v p99=%v max=%v\n",
		res.Mean().Round(time.Microsecond),
		res.Pct(50).Round(time.Microsecond), res.Pct(95).Round(time.Microsecond),
		res.Pct(99).Round(time.Microsecond), res.Max().Round(time.Microsecond))
	if len(res.PerNode) > 0 {
		fmt.Printf("fleet: %d 5xx, %d failover retries\n", res.FiveXX, res.Retries)
		for _, pn := range res.PerNode {
			fmt.Printf("  %-28s ok=%-7d shed=%-6d errors=%-5d 5xx=%-5d backoffs=%d\n",
				pn.URL, pn.OK, pn.Shed, pn.Errors, pn.FiveXX, pn.Backoff)
		}
	}
}

// runDrift is `-drift` mode: the loadtest drift driver against a live
// server, reporting the accuracy crater and recovery point.
func runDrift(baseURL, model string, fn, toFn, rows, at, batch int, seed int64, pace time.Duration) {
	scfg := synth.Config{
		Function: fn, DriftFunction: toFn, DriftAt: at,
		Attrs: 9, Tuples: rows, Seed: seed,
	}
	log.Printf("streaming %s into %s model=%s (batch=%d, pace=%v)",
		scfg.Name(), baseURL, model, batch, pace)
	res, err := loadtest.RunDrift(loadtest.DriftConfig{
		BaseURL:   baseURL,
		Model:     model,
		Synth:     scfg,
		BatchRows: batch,
		Pace:      pace,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ingested: %d rows in %.1fs (%s rows/s)\n",
		res.RowsIngested, res.Elapsed, fmtRate(res.IngestPerSec))
	fmt.Printf("accuracy: pre-drift %.4f, post-drift min %.4f\n", res.PreDriftAcc, res.MinPostAcc)
	if res.RecoveredAtRow >= 0 {
		fmt.Printf("recovered: %.1fs / %d rows after the flip (at row %d)\n",
			res.RecoverySecs, res.RecoveredAtRow-at, res.RecoveredAtRow)
	} else {
		fmt.Printf("recovered: NOT within %d rows — is the server running with -ingest-window and -retrain-interval?\n", rows-at)
	}
	fmt.Printf("server: %d retrains, %d swaps, %d rejects\n", res.Retrains, res.Swaps, res.Rejects)
}

func fmtRate(v float64) string {
	switch {
	case v >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fk", v/1e3)
	default:
		return fmt.Sprintf("%.1f", v)
	}
}

// Command parclassd is the model server: it trains a classifier (on CSV or
// synthetic data) or loads a saved model, registers it, and serves
// predictions over HTTP with hot model swapping — the serving half of the
// repo's train→serve→measure loop (drive it with cmd/loadgen).
//
// Usage:
//
//	parclassd -synthetic F7-A32-D10K -algorithm mwk -procs 4
//	parclassd -data train.csv -addr :9090
//	parclassd -model m.json -name fraud
//	parclassd -synthetic F7-A32-D1000K -algorithm mwk -procs 4 -background-train
//
// Routes, all under /v1: POST /v1/predict, POST /v1/ingest, GET
// /v1/healthz, GET /v1/metrics, GET /v1/models, GET /v1/model/{name}, POST
// /v1/models/{name} (hot swap). See internal/serve. Training runs attach a
// build monitor, so GET /v1/metrics
// carries a "build" section with the run's per-phase breakdown — live
// while -background-train is still growing the tree.
//
// Every predict request runs inline on its own handler goroutine behind
// an admission cap: once the predicts in flight plus those estimated to be
// waiting for a CPU reach -queue-depth, the rest are shed with 429 +
// Retry-After; -queue-depth 0 disables the cap.
// The predict body cap is -predict-max-bytes (413 past it).
//
// Cluster mode turns a set of parclassd processes into a replicated
// serving fleet: give each node a stable -node-id and its peers' URLs in
// -peers, and a model POSTed to any node (or won by its retrain loop)
// fans out to all of them under a per-model version vector, while a
// pull-based anti-entropy loop (-anti-entropy) converges nodes that were
// down when the push happened. GET /v1/cluster reports per-peer liveness,
// per-model versions and replication lag:
//
//	parclassd -addr :8081 -node-id a -peers http://127.0.0.1:8082,http://127.0.0.1:8083
//
// Online learning is on by default: POST /v1/ingest accepts labeled rows
// into a bounded sliding window (-ingest-window rows; 0 disables the
// route), and a background loop (-retrain-interval; 0 disables) rebuilds a
// HIST-engine candidate on the window and hot-swaps it in ONLY when it
// beats the serving model on a held-out window slice by more than
// -retrain-margin — the accuracy tripwire that keeps a bad batch of labels
// from degrading serving. Watch it on GET /v1/metrics under "ingest".
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os/signal"
	"strings"
	"syscall"
	"time"

	parclass "repro"
	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/ingest"
	"repro/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("parclassd: ")
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		name      = flag.String("name", serve.DefaultModelName, "registry name for the initial model")
		modelPath = flag.String("model", "", "load a saved model (JSON) instead of training")
		data      = flag.String("data", "", "CSV dataset to train on (last column is the class)")
		synthetic = flag.String("synthetic", "", "synthetic dataset spec Fx-Ay-DzK (e.g. F7-A32-D10K)")
		seed      = flag.Int64("seed", 1, "synthetic generator seed")
		algorithm = flag.String("algorithm", "serial", "serial | basic | fwk | mwk | subtree | recpar | hist")
		procs     = flag.Int("procs", 1, "worker processors for parallel training schemes")
		maxBins   = flag.Int("max-bins", 0, "histogram bins per continuous attribute for hist (0 = default 256)")
		maxDepth  = flag.Int("max-depth", 0, "tree depth bound (0 = unlimited)")
		doPrune   = flag.Bool("prune", false, "apply MDL pruning after growth")
		bgTrain   = flag.Bool("background-train", false,
			"start serving before training finishes; watch the build live on /v1/metrics")
		trees       = flag.Int("trees", 0, "train a bagged forest of this many trees (0/1 = single tree)")
		sampleFrac  = flag.Float64("sample-frac", 0, "bootstrap sample fraction per tree (0 = classic bootstrap)")
		featureFrac = flag.Float64("feature-frac", 0, "attribute subsample fraction per tree (0 = all attributes)")
		forestSeed  = flag.Int64("forest-seed", 0, "forest bootstrap/feature RNG seed")
		queueDepth  = flag.Int("queue-depth", serve.DefaultBatchQueueDepth,
			"cap on the predict backlog (in flight plus waiting for a CPU); past it requests shed with 429 + Retry-After (0 disables the cap)")
		predictMaxBytes = flag.Int64("predict-max-bytes", serve.DefaultPredictMaxBytes,
			"POST /v1/predict body cap in bytes (oversized bodies answer 413)")
		ingestWindow = flag.Int("ingest-window", serve.DefaultIngestWindow,
			"labeled-row sliding window capacity for POST /v1/ingest (0 disables online ingest)")
		retrainInterval = flag.Duration("retrain-interval", 5*time.Second,
			"how often the background loop retrains on the ingest window (0 disables the loop; POST /v1/ingest still fills the window)")
		retrainMinRows = flag.Int("retrain-min-rows", 0,
			"skip retrain cycles until the window holds this many rows (0 = default 500)")
		retrainHoldout = flag.Int("retrain-holdout", 0,
			"hold out every k-th window row to score candidate vs serving (0 = default 5)")
		retrainMargin = flag.Float64("retrain-margin", 0,
			"swap only when candidate holdout accuracy beats serving by more than this")
		nodeID = flag.String("node-id", "",
			"stable cluster identity (the version-vector axis this node bumps); enables cluster mode")
		peers = flag.String("peers", "",
			"comma-separated peer base URLs (http://host:port,...) for model-swap replication; requires -node-id")
		selfURL = flag.String("self-url", "",
			"advertised base URL echoed on GET /v1/cluster (default derived from -addr)")
		antiEntropy = flag.Duration("anti-entropy", cluster.DefaultInterval,
			"pull-based anti-entropy period: how often this node pulls peer digests to repair missed pushes")
		readHeaderTimeout = flag.Duration("read-header-timeout", 10*time.Second,
			"time limit for reading a request's headers (0 = none; Slowloris guard)")
		readTimeout = flag.Duration("read-timeout", 2*time.Minute,
			"time limit for reading a whole request including the body (0 = none)")
		writeTimeout = flag.Duration("write-timeout", 2*time.Minute,
			"time limit for writing a response (0 = none)")
		idleTimeout = flag.Duration("idle-timeout", 2*time.Minute,
			"keep-alive idle connection timeout (0 = none)")
	)
	flag.Parse()

	mon := parclass.NewBuildMonitor()
	s := serve.New(*name)
	s.SetBuildMonitor(mon)
	s.SetPredictMaxBytes(*predictMaxBytes)

	// Cluster mode: every local publish (upload or winning retrain swap)
	// fans out to the peers, and the anti-entropy loop pulls back whatever
	// a dead interval missed. The node must exist before the retrain loop
	// starts so a winning swap never races the hook installation.
	var node *cluster.Node
	if *nodeID != "" || *peers != "" {
		if *nodeID == "" {
			log.Fatal("cluster: -peers requires -node-id")
		}
		self := *selfURL
		if self == "" {
			if strings.HasPrefix(*addr, ":") {
				self = "http://127.0.0.1" + *addr
			} else {
				self = "http://" + *addr
			}
		}
		var peerList []string
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peerList = append(peerList, strings.TrimSuffix(p, "/"))
			}
		}
		n, err := cluster.New(cluster.Config{
			ID: *nodeID, Self: self, Peers: peerList, Interval: *antiEntropy,
		}, s)
		if err != nil {
			log.Fatalf("bad -node-id: %v", err)
		}
		node = n
		log.Printf("cluster: node %q at %s, %d peers, anti-entropy every %v",
			*nodeID, self, len(peerList), *antiEntropy)
	}
	if *queueDepth > 0 {
		if err := s.EnableBatching(serve.BatchConfig{QueueDepth: *queueDepth}); err != nil {
			log.Fatal(err)
		}
		log.Printf("admission control: predict backlog capped at %d", *queueDepth)
	}

	var stopRetrain func()
	if *ingestWindow > 0 {
		if err := s.EnableIngest(serve.IngestConfig{WindowCap: *ingestWindow}); err != nil {
			log.Fatal(err)
		}
		if *retrainInterval > 0 {
			stopRetrain = s.StartRetrainLoop(*name, *retrainInterval, ingest.RetrainConfig{
				MinRows:      *retrainMinRows,
				HoldoutEvery: *retrainHoldout,
				Margin:       *retrainMargin,
			})
			log.Printf("online learning: %d-row ingest window, retrain every %v (accuracy tripwire margin %g)",
				*ingestWindow, *retrainInterval, *retrainMargin)
		} else {
			log.Printf("online ingest: %d-row window (retrain loop disabled)", *ingestWindow)
		}
	}

	fc := forestConfig{
		Trees: *trees, SampleFrac: *sampleFrac, FeatureFrac: *featureFrac, Seed: *forestSeed,
	}
	train := func() error {
		model, source, err := buildModel(*modelPath, *data, *synthetic, *seed, *algorithm, *procs, *maxDepth, *maxBins, *doPrune, fc, mon)
		if err != nil {
			return err
		}
		if _, err := s.Load(*name, model, source); err != nil {
			return err
		}
		if node != nil {
			// Seed with the zero version vector: any real publish anywhere
			// in the fleet dominates the boot model, and identically
			// configured nodes seeding the same deterministic build agree.
			if err := node.Seed(*name, model); err != nil {
				return err
			}
		}
		st := model.Stats()
		if nt := model.NumTrees(); nt > 1 {
			log.Printf("forest %q ready (%s): %d trees, %d nodes, %d leaves, %d levels",
				*name, source, nt, st.Nodes, st.Leaves, st.Levels)
		} else {
			log.Printf("model %q ready (%s): %d nodes, %d leaves, %d levels", *name, source, st.Nodes, st.Leaves, st.Levels)
		}
		if m, ok := model.(*parclass.Model); ok {
			if bt := m.BuildTrace(); bt != nil {
				log.Printf("build breakdown:\n%s", bt.Format())
			}
		}
		return nil
	}
	if *bgTrain {
		go func() {
			if err := train(); err != nil {
				// Surface the failure instead of only logging it: /v1/healthz
				// turns degraded (503 while nothing serves under the name)
				// and /v1/metrics carries the error, so orchestrators and
				// dashboards see the dead training run.
				s.RecordFailure(*name, err)
				log.Printf("background training failed: %v", err)
			}
		}()
	} else if err := train(); err != nil {
		log.Fatal(err)
	}
	handler := s.Handler()
	var stopSync func()
	if node != nil {
		handler = node.Handler()
		stopSync = node.Start()
	}
	// Every timeout is flag-overridable; the defaults close slow-header
	// (Slowloris), slow-body, stuck-response and abandoned keep-alive
	// connections instead of holding their goroutines forever.
	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: *readHeaderTimeout,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		log.Print("shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			log.Printf("shutdown: %v", err)
		}
	}()

	log.Printf("serving on %s", *addr)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	// Stop the anti-entropy loop and the retrain loop, and lift the
	// admission cap, after the listener drains.
	if stopSync != nil {
		stopSync()
	}
	if stopRetrain != nil {
		stopRetrain()
	}
	s.Close()
}

// forestConfig carries the -trees/-sample-frac/-feature-frac/-forest-seed
// flags; the zero value means a single tree.
type forestConfig struct {
	Trees       int
	SampleFrac  float64
	FeatureFrac float64
	Seed        int64
}

func (fc forestConfig) enabled() bool {
	return fc.Trees > 1 || fc.SampleFrac != 0 || fc.FeatureFrac != 0 || fc.Seed != 0
}

// buildModel trains or loads the initial classifier (a single tree, or a
// forest when fc is set) and describes its origin.
func buildModel(modelPath, data, synthetic string, seed int64, algorithm string,
	procs, maxDepth, maxBins int, doPrune bool, fc forestConfig, mon *parclass.BuildMonitor) (parclass.Predictor, string, error) {
	if modelPath != "" {
		m, err := parclass.LoadModel(modelPath)
		return m, "loaded " + modelPath, err
	}
	var (
		ds     *parclass.Dataset
		source string
		err    error
	)
	switch {
	case data != "" && synthetic != "":
		return nil, "", fmt.Errorf("use only one of -data and -synthetic")
	case data != "":
		ds, err = parclass.LoadCSV(data)
		source = "trained on " + data
	case synthetic != "":
		var spec bench.DataSpec
		spec, err = bench.ParseSpec(synthetic)
		if err == nil {
			ds, err = parclass.Synthetic(parclass.SyntheticConfig{
				Function: spec.Function, Attrs: spec.Attrs, Tuples: spec.Tuples,
				Seed: seed, Perturbation: 0.05,
			})
		}
		source = "trained on synthetic " + synthetic
	default:
		return nil, "", fmt.Errorf("need one of -model, -data or -synthetic")
	}
	if err != nil {
		return nil, "", err
	}
	opt := parclass.Options{Procs: procs, MaxDepth: maxDepth, Prune: doPrune, Monitor: mon}
	switch strings.ToLower(algorithm) {
	case "serial":
		opt.Algorithm = parclass.Serial
	case "basic":
		opt.Algorithm = parclass.Basic
	case "fwk":
		opt.Algorithm = parclass.FWK
	case "mwk":
		opt.Algorithm = parclass.MWK
	case "subtree":
		opt.Algorithm = parclass.Subtree
	case "recpar":
		opt.Algorithm = parclass.RecordParallel
	case "hist":
		opt.Algorithm = parclass.Hist
		opt.MaxBins = maxBins
	default:
		return nil, "", fmt.Errorf("unknown algorithm %q", algorithm)
	}
	if fc.enabled() {
		opt.Trees = fc.Trees
		opt.SampleFrac = fc.SampleFrac
		opt.FeatureFrac = fc.FeatureFrac
		opt.ForestSeed = fc.Seed
		// The monitor watches single-tree builds only; member builds
		// interleave, so Validate rejects the combination.
		opt.Monitor = nil
		f, err := parclass.TrainForest(ds, opt)
		return f, source, err
	}
	m, err := parclass.Train(ds, opt)
	return m, source, err
}

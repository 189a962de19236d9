package serve

// Hot-swap consistency tests: every field of a response must come from ONE
// atomic model snapshot, even while background retrains swap the serving
// model (single tree ↔ forest) under live traffic.

import (
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"

	parclass "repro"
	"repro/internal/ingest"
	"repro/internal/synth"
)

// TestModelInfoAtomicUnderSwap hammers GET /v1/model/{name} while another
// goroutine hot-swaps the model between a single tree and a 5-tree forest.
// Every response must be internally consistent: a forest answer carries
// trees=5 with the forest's node stats (and its OOB estimate when one
// exists), a tree answer carries no trees/oob fields and the tree's node
// stats. A mix — old tree count with new stats — is a torn view. Run under
// -race (make race / make ingest-soak cover this file).
func TestModelInfoAtomicUnderSwap(t *testing.T) {
	tree := trainModel(t, 1, 2000)
	forest := trainForest(t, 5)
	treeNodes := tree.Stats().Nodes
	forestNodes := forest.Stats().Nodes
	if treeNodes == forestNodes {
		t.Fatalf("test needs distinguishable models; both have %d nodes", treeNodes)
	}

	s, ts := newTestServer(t, tree)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 400; i++ {
			if i%2 == 0 {
				s.Load("default", forest, "swap-forest")
			} else {
				s.Load("default", tree, "swap-tree")
			}
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				resp, err := http.Get(ts.URL + "/v1/model/default")
				if err != nil {
					t.Error(err)
					return
				}
				var info ModelInfo
				err = json.NewDecoder(resp.Body).Decode(&info)
				resp.Body.Close()
				if err != nil {
					t.Error(err)
					return
				}
				switch info.Trees {
				case 5:
					if info.Stats.Nodes != forestNodes {
						t.Errorf("torn view: trees=5 with nodes=%d, forest has %d",
							info.Stats.Nodes, forestNodes)
						return
					}
				case 0:
					if info.Stats.Nodes != treeNodes {
						t.Errorf("torn view: single-tree info with nodes=%d, tree has %d",
							info.Stats.Nodes, treeNodes)
						return
					}
					if info.OOB != nil {
						t.Error("torn view: single-tree info carries a forest OOB estimate")
						return
					}
				default:
					t.Errorf("impossible trees=%d", info.Trees)
					return
				}
			}
		}()
	}
	<-done
	wg.Wait()
}

// TestBatchedPredictTreesFromDispatchModel is the regression test for the
// predict path's torn view: the response's "trees" field must come from
// the model version that produced the predictions. With a request parked
// after admission across a tree→forest hot swap, it must answer with the
// forest's predictions labeled with the forest's ensemble size, never
// forest predictions in a single-tree response (no trees field).
func TestBatchedPredictTreesFromDispatchModel(t *testing.T) {
	tree := trainModel(t, 1, 2000)
	forest := trainForest(t, 5)
	s, ts := newTestServer(t, tree)
	a := enableBatching(t, s, BatchConfig{QueueDepth: 8})
	entered, open := parkAdmitted(a)
	defer open()

	rows := [][]string{sampleValues(tree, "25"), sampleValues(tree, "50")}
	body, _ := json.Marshal(predictRequest{ValuesRows: rows})
	replies := make(chan reply, 1)
	postAsync(ts.URL+"/v1/predict", body, replies)

	// The request was admitted while the single tree served; swap in the
	// forest, then release. It reads the model after the swap.
	<-entered
	if _, err := s.Load("default", forest, "mid-flight swap"); err != nil {
		t.Fatal(err)
	}
	open()

	r := <-replies
	if r.err != nil {
		t.Fatal(r.err)
	}
	var resp predictResponse
	if err := json.Unmarshal(r.body, &resp); err != nil {
		t.Fatal(err)
	}
	want, err := forest.PredictValuesBatch(rows)
	if err != nil {
		t.Fatal(err)
	}
	if r.code != http.StatusOK || strings.Join(resp.Predictions, ",") != strings.Join(want, ",") {
		t.Fatalf("swap-raced request: code %d resp %+v, want forest predictions %v", r.code, resp, want)
	}
	if resp.Trees != forest.NumTrees() {
		t.Fatalf("trees=%d but the forest (%d trees) served the request: "+
			"response metadata torn from another model version",
			resp.Trees, forest.NumTrees())
	}
}

// TestRetrainSwapRechecksServingSchema is the regression test for the
// retrain/hot-swap interleaving: a retrain cycle decides to publish its
// candidate, but between that decision and the registry swap an operator
// upload installs a model with a DIFFERENT schema. The candidate was
// trained and holdout-validated against the old schema's window, so
// publishing it would put a model on the wire that cannot speak the
// schema the stack just moved to. The old code called Load
// unconditionally and clobbered the operator's model; the guarded
// publish must refuse, report OutcomeStale, and leave the new model
// serving.
func TestRetrainSwapRechecksServingSchema(t *testing.T) {
	m := trainModel(t, 1, 2000) // serving: F1 on the canonical 9-attr schema
	s, ts := newIngestServer(t, m, 4000)

	// Drifted F7 traffic fills the window so the candidate wins its
	// holdout and the cycle reaches the publish step.
	st, err := synth.NewStreamer(synth.Config{Function: 7, Tuples: 10000, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		ingestRows(t, ts.URL, drawRows(t, st, 500))
	}

	// The concurrently uploaded model speaks a 12-attribute schema —
	// structurally different from the window's 9.
	wds, err := parclass.Synthetic(parclass.SyntheticConfig{
		Function: 1, Tuples: 1000, Attrs: 12, Seed: 9, Perturbation: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	wide, err := parclass.Train(wds, parclass.Options{MaxDepth: 8})
	if err != nil {
		t.Fatal(err)
	}

	// swapGate fires after the tripwire decided to swap but before the
	// publish — exactly the window the race lives in.
	ist := s.ing.Load()
	gateFired := false
	ist.swapGate = func() {
		gateFired = true
		if _, err := s.Load("default", wide, "operator upload mid-retrain"); err != nil {
			t.Errorf("concurrent upload: %v", err)
		}
	}

	res, err := s.RetrainOnce("default", ingest.RetrainConfig{MinRows: 500})
	if err != nil {
		t.Fatal(err)
	}
	if !gateFired {
		t.Fatalf("outcome %q: candidate never won its holdout, race not exercised", res.Outcome)
	}
	if res.Outcome != ingest.OutcomeStale {
		t.Fatalf("outcome %q, want %q: the unconditional publish installed a "+
			"candidate validated against a schema the server no longer serves",
			res.Outcome, ingest.OutcomeStale)
	}
	if res.Candidate != nil {
		t.Fatal("stale result still carries the candidate")
	}

	// The operator's model must still be serving.
	_, cur := s.current("default")
	if got := len(cur.model.Schema().Attrs); got != 12 {
		t.Fatalf("serving model has %d attrs, want 12: retrain clobbered the concurrent upload", got)
	}

	// The refusal is visible in /v1/metrics.
	var met metricsSnapshot
	if code := getJSON(t, ts.URL+"/v1/metrics", &met); code != 200 {
		t.Fatalf("metrics status %d", code)
	}
	r := met.Ingest.Retrain
	if r.Stales != 1 || r.Swaps != 0 || r.LastOutcome != string(ingest.OutcomeStale) {
		t.Fatalf("retrain counters %+v, want exactly one stale and no swaps", r)
	}
}

# Developer entry points. `make verify` is the tier-1 gate: it builds and
# vets everything, checks formatting, runs the full test suite, the
# allocation-budget gate (E/W/S work units must not allocate),
# race-checks the concurrent packages (the public API, the model server,
# the flat batch predictor, the attribute-list stores, the training
# engines and their scheduling primitives), runs the chaos matrix, the
# ingest and cluster soaks and the open-loop overload test
# (TestOverloadSheds: the backlog cap must shed at 2x capacity), and vets
# and tests the benchmark/ module against the API surface it calls.
# `make fuzz` runs each native fuzz target for FUZZTIME (default 30s); it
# is not part of verify. `gobench` and `serve-bench` are Go
# micro-benchmarks; end-to-end performance is benchmark/run.sh's job
# (`benchmark -record` / `-compare` to diff two runs).

GO ?= go
FUZZTIME ?= 30s

.PHONY: verify build vet fmt-check test alloc-check race chaos ingest-soak cluster-soak overload benchmark-module fuzz gobench serve-bench

verify: build vet fmt-check test alloc-check race chaos ingest-soak cluster-soak overload benchmark-module

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# Zero-allocation gates for the scratch-arena hot paths: the E/W/S work
# units (internal/core/alloc_test.go), the setup pre-sort with caller
# scratch, the histogram engine (its work units, and its retained parent
# histograms, which come from a pool sized once per build), the pooled
# single-row PredictValues
# on a Model and a Forest, and the bulk predict body read and decode
# (-count=1 so a cached pass can't mask a regression introduced by a
# dependency).
alloc-check:
	$(GO) test -count=1 -run 'TestSortAllocationBudget' ./internal/alist/
	$(GO) test -count=1 -run 'TestWorkUnitAllocationBudget|TestHistRetainAllocationBudget' ./internal/core/
	$(GO) test -count=1 -run 'TestHistWorkUnitAllocationBudget' ./internal/hist/
	$(GO) test -count=1 -run 'TestPredictValuesAllocationBudget' .
	$(GO) test -count=1 -run 'TestRequestDecodeAllocationBudget' ./internal/serve/

race:
	$(GO) test -race . ./internal/serve/... ./internal/flat/... ./internal/alist/... ./internal/core/... ./internal/sched/... ./internal/trace/... ./internal/hist/... ./internal/cluster/... ./internal/loadtest/...

# The chaos matrix: every scheme x every storage backend x deterministic
# fault plans (transient/permanent/short-write/panic/latency), under the
# race detector, with goroutine-leak and temp-dir-leak checks (see
# internal/core/chaos_test.go and phasefault_test.go).
chaos:
	$(GO) test -race -count=1 -run 'TestChaosMatrix|TestPhaseFaults|TestStoreCloseErrorSurfaces|TestTempDirRemovedOnStoreCtorFailure|TestHistChaos' ./internal/core/
	$(GO) test -race -count=1 -run 'TestChaosForest' .

# Online-learning soak: concurrent drifting ingest + batched predict
# against one server with a fast retrain loop, under the race detector;
# fails on any 5xx (-count=1 so every run exercises the loop afresh).
ingest-soak:
	$(GO) test -race -count=1 -run 'TestIngestPredictSoak' ./internal/serve/

# Cluster soak: a 3-node in-process fleet on real TCP listeners under
# sustained open-loop load (below the admission cap: it sheds nothing and
# does not test overload), one node hard-killed and restarted on the same port
# mid-run with a model published during the outage, under the race
# detector; fails on any 5xx or if anti-entropy does not converge the
# restarted node (-count=1 so every run replays the crash afresh).
cluster-soak:
	$(GO) test -race -count=1 -run 'TestClusterSoakKillRestart' ./internal/cluster/

# Open-loop overload: measure the in-process server's closed-loop capacity,
# offer twice that rate at a backlog cap of 16, and assert that the cap
# sheds, nothing errors, at least a quarter of capacity is still served,
# admitted p99 stays under 2s and the in-flight gauge drains to 0
# (-count=1 so every run measures afresh; no -race, which would measure
# the detector instead of the server).
overload:
	$(GO) test -count=1 -v -run 'TestOverloadSheds' ./internal/serve/

# benchmark/ is its own module (replace repro => ../), so `./...` above
# never reaches it: vet and smoke-test it here so an API-surface deletion
# that breaks the repo benchmark fails the gate.
benchmark-module:
	cd benchmark && $(GO) vet ./... && $(GO) test -count=1 ./...

# Native fuzzing, outside verify (whose load gates, the soaks and
# `overload`, are time-boxed; fuzzing is open-ended): the model reader, the CSV loaders, the
# predict/ingest body decoder against encoding/json, the cluster's
# version-vector wire form, the incremental categorical split search
# against its re-summing reference and the scored split searches against
# their float-only references, each for FUZZTIME (tier-1 `go test` already
# runs their seeds).
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzReadModel$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzCSV$$' -fuzztime $(FUZZTIME) ./internal/dataset/
	$(GO) test -run '^$$' -fuzz '^FuzzPredictRequest$$' -fuzztime $(FUZZTIME) ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzIngestRequest$$' -fuzztime $(FUZZTIME) ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzParseVersion$$' -fuzztime $(FUZZTIME) ./internal/cluster/
	$(GO) test -run '^$$' -fuzz '^FuzzCatEvalSearch$$' -fuzztime $(FUZZTIME) ./internal/split/
	$(GO) test -run '^$$' -fuzz '^FuzzScorerMatchesFloat$$' -fuzztime $(FUZZTIME) ./internal/split/

# Go micro-benchmarks for the root package (predict paths etc).
gobench:
	$(GO) test -run xxx -bench . -benchmem .

# The serving hot-path trio: pointer loop vs flat walk vs sharded batch.
serve-bench:
	$(GO) test -run xxx -bench 'BenchmarkPredict(Pointer|Flat|BatchParallel)' .

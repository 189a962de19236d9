# Developer entry points. `make verify` is the tier-1 gate: it builds and
# vets everything, checks formatting, runs the full test suite, the
# allocation-budget gate (E/W/S work units must not allocate),
# race-checks the concurrent packages (the public API, the model server,
# the flat batch predictor, the attribute-list stores, the training
# engines and their scheduling primitives), and vets and tests the
# benchmark/ module against the API surface it calls.

GO ?= go

.PHONY: verify build vet fmt-check test alloc-check race chaos ingest-soak cluster-soak benchmark-module bench benchcmp gobench serve-bench servebench driftbench clusterbench

verify: build vet fmt-check test alloc-check race chaos ingest-soak cluster-soak benchmark-module

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
# scratch, and the histogram engine (-count=1 so a cached pass can't mask a
# regression introduced by a dependency).
alloc-check:
	$(GO) test -count=1 -run 'TestSortAllocationBudget' ./internal/alist/
	$(GO) test -count=1 -run 'TestWorkUnitAllocationBudget' ./internal/core/
	$(GO) test -count=1 -run 'TestHistWorkUnitAllocationBudget' ./internal/hist/

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
# open-loop overload, one node hard-killed and restarted on the same port
# mid-run with a model published during the outage, under the race
# detector; fails on any 5xx or if anti-entropy does not converge the
# restarted node (-count=1 so every run replays the crash afresh).
cluster-soak:
	$(GO) test -race -count=1 -run 'TestClusterSoakKillRestart' ./internal/cluster/

# benchmark/ is its own module (replace repro => ../), so `./...` above
# never reaches it: vet and smoke-test it here so an API-surface deletion
# that breaks the repo benchmark fails the gate.
benchmark-module:
	cd benchmark && $(GO) vet ./... && $(GO) test -count=1 ./...

# The build-phase observability sweep: real instrumented builds over the
# paper's F1/F7 pair plus the forest build/serve rows, written to the
# checked-in BENCH_build.json.
bench:
	$(GO) run ./cmd/benchjson -repeat 2 -forest-trees 1,5,25 -out BENCH_build.json

# Diff the checked-in sweep against the previous PR's baseline; fails on a
# >10% build-time regression in any matched run.
benchcmp:
	$(GO) run ./cmd/benchjson -compare results/bench_pr2_baseline.json BENCH_build.json

# Go micro-benchmarks for the root package (predict paths etc).
gobench:
	$(GO) test -run xxx -bench . -benchmem .

# The serving hot-path trio: pointer loop vs flat walk vs sharded batch.
serve-bench:
	$(GO) test -run xxx -bench 'BenchmarkPredict(Pointer|Flat|BatchParallel)' .

# End-to-end serving throughput: loadgen's driver against an in-process
# server in three configurations (inline, micro-batched, open-loop
# overload), appended to BENCH_build.json as "serve_runs".
servebench:
	$(GO) run ./cmd/benchjson -serve -out BENCH_build.json

# Multi-process cluster harness (no docker): build the real parclassd
# binary, boot a 3-node fleet, kill and restart a node under 2x open-loop
# overload with a model published during the outage, and append the
# kill-and-restart row to BENCH_build.json as "cluster_runs". Fails on
# any 5xx or if the restarted node does not converge by anti-entropy.
clusterbench:
	$(GO) build -o bin/parclassd ./cmd/parclassd
	$(GO) run ./cmd/benchjson -cluster -parclassd bin/parclassd -out BENCH_build.json

# Online drift recovery: stream an F1→F7 drifting labeled feed into an
# in-process server with a retrain loop and measure time-to-recover,
# appended to BENCH_build.json as "drift_runs".
driftbench:
	$(GO) run ./cmd/benchjson -drift -out BENCH_build.json

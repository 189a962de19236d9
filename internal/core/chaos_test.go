package core

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/alist"
	"repro/internal/alist/faultstore"
	"repro/internal/tree"
)

// The chaos matrix drives every scheme over every storage backend with
// deterministic fault plans injected beneath the retry layer. The contract
// under test is the failure-semantics guarantee: every build either produces
// the byte-identical tree (healable plans must; others may, when their fault
// never fires) or returns a prompt non-nil error — never a deadlock, a
// leaked goroutine, or a leftover temp directory.

// chaosPlan is one fault plan of the matrix.
type chaosPlan struct {
	name  string
	rules []faultstore.Rule
	// heals means the plan's faults are within the retry budget: the build
	// must succeed and match the reference tree.
	heals bool
	// panics means a failure must carry ErrWorkerPanic instead of
	// faultstore.ErrInjected.
	panics bool
}

func chaosPlans() []chaosPlan {
	return []chaosPlan{
		{name: "clean", heals: true},
		// Transient faults within DefaultRetry's 3-attempt budget: even if
		// both firings land on the same call, two retries heal it.
		{name: "scan-transient",
			rules: []faultstore.Rule{faultstore.Match(faultstore.OpScan, 25, 2, faultstore.Transient)},
			heals: true},
		{name: "write-transient",
			rules: []faultstore.Rule{faultstore.Match(faultstore.OpWrite, 6, 2, faultstore.Transient)},
			heals: true},
		{name: "short-write",
			rules: []faultstore.Rule{faultstore.Match(faultstore.OpWrite, 9, 1, faultstore.ShortWrite)},
			heals: true},
		{name: "latency",
			rules: []faultstore.Rule{{Op: faultstore.OpScan, Attr: faultstore.Any, Slot: faultstore.Any,
				After: 3, Count: 8, Mode: faultstore.Delay, Latency: 200 * time.Microsecond}},
			heals: true},
		// Permanent faults: the build must fail promptly with the injected
		// error once the operation count is reached.
		{name: "scan-fail",
			rules: []faultstore.Rule{faultstore.Match(faultstore.OpScan, 30, 0, faultstore.Fail)}},
		{name: "write-fail",
			rules: []faultstore.Rule{faultstore.Match(faultstore.OpWrite, 11, 0, faultstore.Fail)}},
		{name: "reserve-fail",
			rules: []faultstore.Rule{faultstore.Match(faultstore.OpReserve, 12, 0, faultstore.Fail)}},
		{name: "reset-fail",
			rules: []faultstore.Rule{faultstore.Match(faultstore.OpReset, 1, 0, faultstore.Fail)}},
		// Mid-scan fault: fires only when a store delivers multiple chunks;
		// single-chunk stores pass it clean (and must then match the tree).
		{name: "scan-midchunk-fail",
			rules: []faultstore.Rule{{Op: faultstore.OpScan, Attr: faultstore.Any, Slot: faultstore.Any,
				After: 35, Mode: faultstore.Fail, Chunk: 2}}},
		// A worker panic: the engines must contain it, tear everything down
		// and return ErrWorkerPanic.
		{name: "scan-panic",
			rules:  []faultstore.Rule{faultstore.Match(faultstore.OpScan, 18, 1, faultstore.Panic)},
			panics: true},
	}
}

// scheme is one row of the failure suites: an algorithm and, for SUBTREE,
// the level body its groups run.
type scheme struct {
	alg, inner Algorithm
}

func (s scheme) String() string {
	if s.inner == MWK {
		return s.alg.String() + "+MWK"
	}
	return s.alg.String()
}

// listSchemes are the attribute-list schemes the failure suites drive:
// every algorithm plus SUBTREE running MWK levels (the §3.4 hybrid), whose
// signal waits have their own error path.
func listSchemes() []scheme {
	return []scheme{{alg: Serial}, {alg: Basic}, {alg: FWK}, {alg: MWK}, {alg: Subtree}, {alg: RecPar},
		{alg: Subtree, inner: MWK}}
}

// chaosStorage names the storage configurations of the matrix.
type chaosStorage struct {
	name string
	cfg  func(c *Config)
}

func chaosStorages() []chaosStorage {
	return []chaosStorage{
		{name: "mem", cfg: func(c *Config) { c.Storage = Memory }},
		{name: "disk", cfg: func(c *Config) { c.Storage = Disk }},
		{name: "disk-combined", cfg: func(c *Config) { c.Storage = Disk; c.CombinedFiles = true }},
	}
}

// waitGoroutines fails the test when the goroutine count does not settle
// back to at most want within the deadline.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= want {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			k := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d live, want <= %d\n%s", n, want, buf[:k])
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// checkNoTempDirs fails the test when dir still holds parclass temp
// directories after a build finished.
func checkNoTempDirs(t *testing.T, dir string) {
	t.Helper()
	leftovers, err := filepath.Glob(filepath.Join(dir, "parclass-alist-*"))
	if err != nil {
		t.Fatalf("glob: %v", err)
	}
	if len(leftovers) > 0 {
		t.Fatalf("leaked temp dirs: %v", leftovers)
	}
}

func TestChaosMatrix(t *testing.T) {
	tbl := synthTable(t, 7, 9, 260, 11)

	// Reference tree from a fault-free serial build; every healed chaos
	// build must reproduce it exactly.
	ref, _, err := Build(tbl, Config{Algorithm: Serial, MaxDepth: 5})
	if err != nil {
		t.Fatalf("reference build: %v", err)
	}

	for _, s := range listSchemes() {
		for _, stor := range chaosStorages() {
			for _, plan := range chaosPlans() {
				name := fmt.Sprintf("%v/%s/%s", s, stor.name, plan.name)
				t.Run(name, func(t *testing.T) {
					// Builds create their temp dirs under TMPDIR, so a
					// fresh sandbox catches any leaked directory.
					tmp := t.TempDir()
					t.Setenv("TMPDIR", tmp)

					var fs *faultstore.Store
					cfg := Config{Algorithm: s.alg, SubtreeInner: s.inner, Procs: 3, MaxDepth: 5}
					stor.cfg(&cfg)
					cfg.StoreWrap = func(st alist.Store) alist.Store {
						fs = faultstore.New(st, plan.rules...)
						return fs
					}

					base := runtime.NumGoroutine()
					type result struct {
						tr  *tree.Tree
						err error
					}
					done := make(chan result, 1)
					go func() {
						tr, _, err := Build(tbl, cfg)
						done <- result{tr, err}
					}()
					var res result
					select {
					case res = <-done:
					case <-time.After(30 * time.Second):
						t.Fatal("chaos build hung")
					}

					waitGoroutines(t, base)
					checkNoTempDirs(t, tmp)

					if plan.heals {
						if res.err != nil {
							t.Fatalf("healable plan failed: %v", res.err)
						}
					}
					if res.err == nil {
						if !tree.Equal(res.tr, ref) {
							t.Fatalf("tree differs from reference:\n%s", tree.Diff(res.tr, ref))
						}
						return
					}
					if res.tr != nil {
						t.Error("failed build must not return a tree")
					}
					if plan.panics {
						if !errors.Is(res.err, ErrWorkerPanic) {
							t.Fatalf("want ErrWorkerPanic, got %v", res.err)
						}
						return
					}
					if !errors.Is(res.err, faultstore.ErrInjected) {
						t.Fatalf("want the injected error, got %v", res.err)
					}
				})
			}
		}
	}
}

// TestStoreCloseErrorSurfaces checks the teardown defer: a store whose Close
// fails must turn an otherwise successful build into an error.
func TestStoreCloseErrorSurfaces(t *testing.T) {
	tbl := synthTable(t, 7, 9, 200, 11)
	cfg := Config{Algorithm: Serial, MaxDepth: 4}
	cfg.StoreWrap = func(st alist.Store) alist.Store {
		return faultstore.New(st, faultstore.Match(faultstore.OpClose, 0, 1, faultstore.Fail))
	}
	tr, _, err := Build(tbl, cfg)
	if !errors.Is(err, faultstore.ErrInjected) {
		t.Fatalf("want the injected close error, got %v", err)
	}
	if tr != nil {
		t.Error("build with failed close must not return a tree")
	}
}

// TestTempDirRemovedOnStoreCtorFailure pins the temp-dir leak fix: when the
// file-store constructor fails, the already-created parclass-alist-*
// directory must still be removed.
func TestTempDirRemovedOnStoreCtorFailure(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	tbl := synthTable(t, 7, 9, 50, 11)
	cfg := Config{Algorithm: Serial, Storage: Disk, MaxDepth: 2}
	// Force the build to fail immediately after store creation instead:
	// there is no hook inside the constructors, so the earliest injectable
	// failure is the first store operation — the directory must be gone
	// either way.
	cfg.StoreWrap = func(st alist.Store) alist.Store {
		return faultstore.New(st, faultstore.Match(faultstore.OpReserve, 0, 0, faultstore.Fail))
	}
	if _, _, err := Build(tbl, cfg); err == nil {
		t.Fatal("expected the injected failure")
	}
	checkNoTempDirs(t, tmp)
}

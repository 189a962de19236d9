package core

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/alist"
	"repro/internal/alist/faultstore"
)

// TestPhaseFaults injects one permanent fault per build phase — E, W and S —
// for every scheme, on real disk storage with retrying disabled, and checks
// the three teardown guarantees: the injected error comes back, no goroutine
// outlives the build, and the temp directory is removed. The rules target
// phases through operation counts that hold across all the schemes:
//
//   - E is the first scan of the build (setup never scans).
//   - W is the first Reserve after setup's exactly-nattr reserves
//     (registerChildren reserving child regions).
//   - S is the first WriteAt after setup's exactly-nattr writes (a split
//     appender flush; the W scan only reads and sets probe bits).
func TestPhaseFaults(t *testing.T) {
	const nattr = 9
	tbl := synthTable(t, 7, nattr, 200, 11)

	phases := []struct {
		name string
		rule faultstore.Rule
	}{
		{"E", faultstore.Match(faultstore.OpScan, 0, 0, faultstore.Fail)},
		{"W", faultstore.Match(faultstore.OpReserve, nattr, 0, faultstore.Fail)},
		{"S", faultstore.Match(faultstore.OpWrite, nattr, 0, faultstore.Fail)},
	}

	for _, s := range listSchemes() {
		for _, ph := range phases {
			t.Run(fmt.Sprintf("%v/%s", s, ph.name), func(t *testing.T) {
				tmp := t.TempDir()
				t.Setenv("TMPDIR", tmp)

				cfg := Config{
					Algorithm: s.alg, SubtreeInner: s.inner, Procs: 3, MaxDepth: 4,
					Storage: Disk,
					Retry:   alist.RetryPolicy{MaxAttempts: 1},
				}
				var fs *faultstore.Store
				cfg.StoreWrap = func(st alist.Store) alist.Store {
					fs = faultstore.New(st, ph.rule)
					return fs
				}

				base := runtime.NumGoroutine()
				done := make(chan error, 1)
				go func() {
					_, _, err := Build(tbl, cfg)
					done <- err
				}()
				var err error
				select {
				case err = <-done:
				case <-time.After(30 * time.Second):
					t.Fatalf("build hung on injected %s-phase fault", ph.name)
				}

				waitGoroutines(t, base)
				checkNoTempDirs(t, tmp)

				if !errors.Is(err, faultstore.ErrInjected) {
					t.Fatalf("want the injected error, got %v", err)
				}
				if fs.Injected() == 0 {
					t.Fatal("fault plan never fired")
				}
			})
		}
	}
}

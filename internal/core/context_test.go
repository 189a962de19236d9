package core

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestContextCancellation cancels builds mid-flight for every scheme; each
// must terminate promptly with the context's error and never hang at a
// barrier or condition wait.
func TestContextCancellation(t *testing.T) {
	tbl := synthTable(t, 7, 16, 4000, 31)
	for _, s := range listSchemes() {
		t.Run(s.String(), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() {
				_, _, err := Build(tbl, Config{
					Algorithm: s.alg, SubtreeInner: s.inner, Procs: 3, Context: ctx,
				})
				done <- err
			}()
			// Let the build get going, then pull the plug.
			time.Sleep(5 * time.Millisecond)
			cancel()
			select {
			case err := <-done:
				// nil is allowed only if the build won the race and
				// finished before the cancel took effect.
				if err != nil && !errors.Is(err, context.Canceled) {
					t.Fatalf("unexpected error: %v", err)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("build did not observe cancellation")
			}
		})
	}
}

// TestPreCancelledContext verifies a dead-on-arrival context fails fast in
// the setup phase.
func TestPreCancelledContext(t *testing.T) {
	tbl := synthTable(t, 1, 9, 200, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := Build(tbl, Config{Algorithm: MWK, Procs: 2, Context: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestDeadlineExceeded verifies deadline-based cancellation surfaces the
// deadline error.
func TestDeadlineExceeded(t *testing.T) {
	tbl := synthTable(t, 7, 32, 20000, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, _, err := Build(tbl, Config{Algorithm: Subtree, Procs: 4, Context: ctx})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
}

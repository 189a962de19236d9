package alist

import (
	"errors"
	"io"
	"sync"
	"syscall"
	"time"
)

// Transient-fault healing for the real store paths. Disk-backed stores sit
// on positioned file I/O, where a class of errors (interrupted syscalls,
// short writes, injected chaos faults) is worth one or two more attempts
// before a whole multi-second build is torn down. Retrying wraps any Store
// with a bounded retry-with-backoff layer; engines apply it to the store
// they build on (FileStore and MemStore alike — for the
// memory store every error is structural and never transient, so the
// wrapper is pure passthrough there).

// RetryPolicy bounds the retry loop applied to transient store faults.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per operation (first try
	// included). <= 1 disables retrying.
	MaxAttempts int
	// BaseDelay is the sleep before the second attempt; each further
	// attempt doubles it.
	BaseDelay time.Duration
	// MaxDelay caps the backoff sleep.
	MaxDelay time.Duration
}

// DefaultRetry is the policy engines use when the caller sets none: three
// attempts with a 200µs/400µs backoff, enough to ride out an interrupted
// syscall without stretching a genuinely failing build by more than ~1ms
// per operation.
func DefaultRetry() RetryPolicy {
	return RetryPolicy{MaxAttempts: 3, BaseDelay: 200 * time.Microsecond, MaxDelay: 10 * time.Millisecond}
}

// transientError marks a wrapped error as transient (retry-worthy).
type transientError struct{ err error }

func (e *transientError) Error() string   { return e.err.Error() }
func (e *transientError) Unwrap() error   { return e.err }
func (e *transientError) Transient() bool { return true }

// MarkTransient wraps err so IsTransient reports true for it. Fault
// injectors use it to model recoverable faults; errors.Is/As still see the
// underlying error.
func MarkTransient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err}
}

// IsTransient reports whether err is worth retrying: anything carrying a
// Transient() bool marker, an interrupted or would-block syscall, or a
// short write (the full region is simply rewritten — positioned writes are
// idempotent).
func IsTransient(err error) bool {
	if err == nil {
		return false
	}
	var t interface{ Transient() bool }
	if errors.As(err, &t) {
		return t.Transient()
	}
	return errors.Is(err, io.ErrShortWrite) ||
		errors.Is(err, syscall.EINTR) ||
		errors.Is(err, syscall.EAGAIN)
}

// Retrying wraps st with the bounded retry policy. Policies with
// MaxAttempts <= 1 return st unchanged.
//
// Retry semantics per operation:
//
//   - WriteAt is always retried: it targets a previously reserved region at
//     a fixed offset, so rewriting the full region is idempotent (this is
//     also what heals a short write).
//   - Scan/ScanBuf are retried only when the failure happened before the
//     first chunk reached the callback — the callback may accumulate state
//     (histograms, split runs), so a mid-scan restart would double-feed it.
//   - Reserve, EnsureSlots and Reset are retried on the premise that
//     implementations fail them without partial effects (both file stores
//     roll back before returning an error).
//   - Close is never retried.
//
// The wrapper always implements BufferedScanner; when the inner store does
// not, ScanBuf degrades to Scan (the IOBuf is just an optimization).
func Retrying(st Store, pol RetryPolicy) Store {
	if pol.MaxAttempts <= 1 {
		return st
	}
	if pol.BaseDelay <= 0 {
		pol.BaseDelay = DefaultRetry().BaseDelay
	}
	if pol.MaxDelay < pol.BaseDelay {
		pol.MaxDelay = pol.BaseDelay
	}
	rs := &retryStore{inner: st, pol: pol}
	rs.bscan, _ = st.(BufferedScanner)
	rs.calls.New = func() any {
		c := &scanCall{}
		// Bind the delivery closure once per pooled object so steady-state
		// scans stay allocation-free (the hot-path budget the engines gate).
		c.deliver = func(recs []Record) error {
			c.delivered = true
			return c.fn(recs)
		}
		return c
	}
	return rs
}

// retryStore is the Retrying wrapper.
type retryStore struct {
	inner Store
	bscan BufferedScanner // inner's ScanBuf, when it has one
	pol   RetryPolicy
	calls sync.Pool // of *scanCall
}

// scanCall tracks whether a scan attempt delivered any chunk; pooled so the
// per-call state costs no allocation.
type scanCall struct {
	fn        func([]Record) error
	delivered bool
	deliver   func([]Record) error
}

// sleep backs off before attempt+1 (attempt is 1-based).
func (rs *retryStore) sleep(attempt int) {
	sh := attempt - 1
	if sh > 16 {
		sh = 16
	}
	d := rs.pol.BaseDelay << sh
	if d > rs.pol.MaxDelay {
		d = rs.pol.MaxDelay
	}
	time.Sleep(d)
}

func (rs *retryStore) NumSlots() int            { return rs.inner.NumSlots() }
func (rs *retryStore) Len(attr, slot int) int64 { return rs.inner.Len(attr, slot) }
func (rs *retryStore) Close() error             { return rs.inner.Close() }

func (rs *retryStore) EnsureSlots(n int) error {
	var err error
	for attempt := 1; ; attempt++ {
		err = rs.inner.EnsureSlots(n)
		if err == nil || attempt >= rs.pol.MaxAttempts || !IsTransient(err) {
			return err
		}
		rs.sleep(attempt)
	}
}

func (rs *retryStore) Reserve(attr, slot int, n int) (int64, error) {
	var (
		off int64
		err error
	)
	for attempt := 1; ; attempt++ {
		off, err = rs.inner.Reserve(attr, slot, n)
		if err == nil || attempt >= rs.pol.MaxAttempts || !IsTransient(err) {
			return off, err
		}
		rs.sleep(attempt)
	}
}

func (rs *retryStore) WriteAt(attr, slot int, off int64, recs []Record) error {
	var err error
	for attempt := 1; ; attempt++ {
		err = rs.inner.WriteAt(attr, slot, off, recs)
		if err == nil || attempt >= rs.pol.MaxAttempts || !IsTransient(err) {
			return err
		}
		rs.sleep(attempt)
	}
}

func (rs *retryStore) Reset(attr, slot int) error {
	var err error
	for attempt := 1; ; attempt++ {
		err = rs.inner.Reset(attr, slot)
		if err == nil || attempt >= rs.pol.MaxAttempts || !IsTransient(err) {
			return err
		}
		rs.sleep(attempt)
	}
}

func (rs *retryStore) Scan(attr, slot int, off int64, n int, fn func([]Record) error) error {
	c := rs.calls.Get().(*scanCall)
	c.fn = fn
	var err error
	for attempt := 1; ; attempt++ {
		c.delivered = false
		err = rs.inner.Scan(attr, slot, off, n, c.deliver)
		if err == nil || c.delivered || attempt >= rs.pol.MaxAttempts || !IsTransient(err) {
			break
		}
		rs.sleep(attempt)
	}
	c.fn = nil
	rs.calls.Put(c)
	return err
}

// ScanBuf implements BufferedScanner with the same before-first-chunk retry
// rule as Scan, falling back to the inner Scan when the store has no
// buffered path.
func (rs *retryStore) ScanBuf(attr, slot int, off int64, n int, io *IOBuf, fn func([]Record) error) error {
	c := rs.calls.Get().(*scanCall)
	c.fn = fn
	var err error
	for attempt := 1; ; attempt++ {
		c.delivered = false
		if rs.bscan != nil {
			err = rs.bscan.ScanBuf(attr, slot, off, n, io, c.deliver)
		} else {
			err = rs.inner.Scan(attr, slot, off, n, c.deliver)
		}
		if err == nil || c.delivered || attempt >= rs.pol.MaxAttempts || !IsTransient(err) {
			break
		}
		rs.sleep(attempt)
	}
	c.fn = nil
	rs.calls.Put(c)
	return err
}

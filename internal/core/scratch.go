package core

import (
	"sync/atomic"

	"repro/internal/alist"
	"repro/internal/hist"
	"repro/internal/probe"
	"repro/internal/split"
)

// scratch is a per-worker arena threaded through every E/W/S work unit. It
// owns the split evaluators, the two child appenders, the probe write batch,
// the file-store scan buffers, HIST's boundary search and partition
// staging, and the scan callbacks themselves, so that
// after the first few levels a work unit touches the allocator zero times:
// evaluator histograms, appender buffers and IO buffers are all reused, and
// the callbacks are built once per worker (a closure built per scan would
// escape through the Store interface and allocate every unit).
//
// Every engine creates one scratch per worker goroutine (the serial engine
// creates one); a scratch is never shared between goroutines.
type scratch struct {
	cont split.ContEval
	cat  split.CatEval

	// S-unit state armed by splitLeafAttr/splitChunk and read by splitScan.
	apL, apR   alist.Appender
	useL, useR bool
	prb        probe.Leaf
	bits       []uint64 // raw probe bits, nil for the hash design
	shared     bool     // bits shared with concurrent W writers ⇒ atomic loads
	remap      bool
	runBuf     []alist.Record // remap staging for the relabel design

	wb    *probe.WBatch // W write-combining, global-bit design only
	io    alist.IOBuf   // file-store scan staging
	below []int64       // record-parallel prefix histogram

	cs   hist.ContSearch // HIST continuous boundary search
	rows []uint32        // HIST stable-partition staging

	contScan  func([]alist.Record) error
	catScan   func([]alist.Record) error
	splitScan func([]alist.Record) error
}

// newScratch builds a worker's arena; only a build with global-bit probes
// gets a probe write batch.
func (e *engine) newScratch() *scratch {
	sc := &scratch{}
	if e.probes != nil && e.probes.Kind() == probe.GlobalBit {
		sc.wb = probe.NewWBatch(e.ntuples)
	}
	sc.contScan = func(recs []alist.Record) error {
		sc.cont.PushChunk(recs)
		return nil
	}
	sc.catScan = func(recs []alist.Record) error {
		sc.cat.PushChunk(recs)
		return nil
	}
	sc.splitScan = sc.splitRuns
	return sc
}

// armProbe prepares the S-unit probe state, pulling out the raw bit array
// when the design exposes one so the kernel can test membership without an
// interface call per record.
func (sc *scratch) armProbe(prb probe.Leaf, remap bool) {
	sc.prb, sc.remap = prb, remap
	sc.bits, sc.shared = nil, false
	if rb, ok := prb.(probe.RawBits); ok {
		sc.bits, sc.shared = rb.RawBits()
	}
}

// splitRuns is the run-length S kernel: it partitions one scan chunk into
// maximal runs of records with the same destination and moves each run with
// one bulk AppendChunk instead of a per-record Append — for MemStore a
// segment-to-segment memmove. Sorted attribute lists are locally correlated
// with the winning attribute, so runs are long exactly when there is the
// most data to move.
func (sc *scratch) splitRuns(recs []alist.Record) error {
	n := len(recs)
	for i := 0; i < n; {
		var left bool
		j := i + 1
		switch {
		case sc.bits != nil && sc.shared:
			// Shared global bit array: other leaves' W writers may be
			// touching neighbor bits of the same words concurrently.
			t := recs[i].Tid
			left = atomic.LoadUint64(&sc.bits[t>>6])&(1<<(t&63)) != 0
			for ; j < n; j++ {
				t = recs[j].Tid
				if (atomic.LoadUint64(&sc.bits[t>>6])&(1<<(t&63)) != 0) != left {
					break
				}
			}
		case sc.bits != nil:
			// Per-leaf bit array, sealed before S starts: plain loads.
			t := recs[i].Tid
			left = sc.bits[t>>6]&(1<<(t&63)) != 0
			for ; j < n; j++ {
				t = recs[j].Tid
				if (sc.bits[t>>6]&(1<<(t&63)) != 0) != left {
					break
				}
			}
		default:
			left = sc.prb.Left(recs[i].Tid)
			for ; j < n && sc.prb.Left(recs[j].Tid) == left; j++ {
			}
		}
		run := recs[i:j]
		i = j

		ap, use := &sc.apR, sc.useR
		if left {
			ap, use = &sc.apL, sc.useL
		}
		if !use {
			continue // records of a terminal (pure) child are dropped
		}
		if !sc.remap {
			if err := ap.AppendChunk(run); err != nil {
				return err
			}
			continue
		}
		// Relabel design: rewrite tids into a bounded staging buffer, then
		// move it as a chunk.
		if cap(sc.runBuf) == 0 {
			sc.runBuf = make([]alist.Record, alist.AppenderChunk)
		}
		for len(run) > 0 {
			k := min(len(run), cap(sc.runBuf))
			buf := sc.runBuf[:k]
			for x := 0; x < k; x++ {
				r := run[x]
				r.Tid = sc.prb.Remap(r.Tid)
				buf[x] = r
			}
			if err := ap.AppendChunk(buf); err != nil {
				return err
			}
			run = run[k:]
		}
	}
	return nil
}

// zeroInt64 returns s with length n and all elements zero, reusing the
// backing array when possible.
func zeroInt64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

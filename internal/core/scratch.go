package core

import (
	"math/bits"
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
	bits       []uint64       // raw probe bits, nil for the hash design
	rank       []uint32       // relabel design's rank index, else nil
	pos        []uint64       // hash design's per-batch destination bits
	drop       []alist.Record // staging for a terminal child's records

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
	sc.splitScan = sc.splitPartition
	return sc
}

// armProbe prepares the S-unit probe state, pulling out the raw bit array
// (and the relabel design's rank index, whose presence makes the kernel
// rewrite tids) when the design exposes one, so the kernel can route and
// relabel without an interface call per record.
func (sc *scratch) armProbe(prb probe.Leaf) {
	sc.prb = prb
	sc.bits, sc.rank = nil, nil
	if rb, ok := prb.(probe.RawBits); ok {
		sc.bits, sc.rank = rb.RawBits()
	}
}

// stage returns the free staging space of one side of the split: the free
// tail of its appender's buffer, or the drop buffer when that child is
// terminal and its records are discarded.
func (sc *scratch) stage(ap *alist.Appender, use bool) ([]alist.Record, error) {
	if use {
		return ap.Stage()
	}
	if sc.drop == nil {
		sc.drop = make([]alist.Record, alist.AppenderChunk)
	}
	return sc.drop, nil
}

// splitPartition is the S kernel: it routes one scan chunk to the two
// children's appenders, in order, batch by batch through partition. The
// batches are staged straight into the free tails of the appenders'
// buffers, so a record is copied once before the appenders flush it to the
// store; a terminal child stages into the drop buffer and never commits.
func (sc *scratch) splitPartition(recs []alist.Record) error {
	for len(recs) > 0 {
		dl, err := sc.stage(&sc.apL, sc.useL)
		if err != nil {
			return err
		}
		dr, err := sc.stage(&sc.apR, sc.useR)
		if err != nil {
			return err
		}
		batch := recs[:min(len(recs), len(dl), len(dr))]
		recs = recs[len(batch):]
		var nl, nr int
		switch {
		case sc.bits == nil:
			nl, nr = partitionByPos(batch, dl, dr, sc.posBits(batch))
		case sc.rank != nil:
			nl, nr = partitionRelabel(batch, dl, dr, sc.bits, sc.rank)
		default:
			nl, nr = partition(batch, dl, dr, sc.bits)
		}
		if sc.useL {
			if err := sc.apL.Commit(nl); err != nil {
				return err
			}
		}
		if sc.useR {
			if err := sc.apR.Commit(nr); err != nil {
				return err
			}
		}
	}
	return nil
}

// posBits asks a probe with no bit array (the hash design) where each
// record of batch goes, and returns the answers as a bitmap keyed by
// position in the batch.
func (sc *scratch) posBits(batch []alist.Record) []uint64 {
	if sc.pos == nil {
		sc.pos = make([]uint64, (alist.AppenderChunk+63)/64)
	}
	pos := sc.pos[:(len(batch)+63)/64]
	clear(pos)
	for i := range batch {
		if sc.prb.Left(batch[i].Tid) {
			pos[i>>6] |= 1 << (i & 63)
		}
	}
	return pos
}

// put is the branch-free step every partition loop runs per record: r is
// stored at the next staging position of both sides, dl[nl] and dr[nr],
// and only the side left picks (1 left, 0 right) moves forward, so routing
// costs no data-dependent branch whatever the destinations' pattern.
func put(dl, dr []alist.Record, nl, nr int, r alist.Record, left uint64) (int, int) {
	dl[nl] = r
	dr[nr] = r
	return nl + int(left), nr + int(left^1)
}

// The partition loops stage batch into dl and dr through put and return
// each side's count of staged records, which its appender commits. They
// differ only in how a record's bit is loaded. Each is a loop of its own,
// with no call and no design test inside, and is kept out of line
// (go:noinline), so its state stays in registers rather than competing
// with splitPartition's.

// partition loads the bit of the record's tid from the probe's words. The
// global design's words are shared with concurrent W writers, so they are
// loaded atomically.
//
//go:noinline
func partition(batch, dl, dr []alist.Record, words []uint64) (nl, nr int) {
	for _, r := range batch {
		t := r.Tid
		var left uint64
		if atomic.LoadUint64(&words[t>>6])&(1<<(t&63)) != 0 {
			left = 1 // a bit test and a flag move, not a branch
		}
		nl, nr = put(dl, dr, nl, nr, r, left)
	}
	return nl, nr
}

// partitionRelabel is partition for the relabel design, which also
// rewrites each tid as it stages: a side's tids are dense from 0, so a
// left tid becomes the number of left tids below it and a right tid the
// number of right tids below it (probe.Leaf.Remap, without its branch).
//
//go:noinline
func partitionRelabel(batch, dl, dr []alist.Record, words []uint64, rank []uint32) (nl, nr int) {
	for _, r := range batch {
		t := r.Tid
		w := words[t>>6]
		left := w >> (t & 63) & 1
		below := rank[t>>6] + uint32(bits.OnesCount64(w&(1<<(t&63)-1)))
		r.Tid = t - below + uint32(left)*(2*below-t)
		nl, nr = put(dl, dr, nl, nr, r, left)
	}
	return nl, nr
}

// partitionByPos loads the bit of the record's position in batch from a
// posBits bitmap.
//
//go:noinline
func partitionByPos(batch, dl, dr []alist.Record, pos []uint64) (nl, nr int) {
	for i, r := range batch {
		nl, nr = put(dl, dr, nl, nr, r, pos[i>>6]>>(i&63)&1)
	}
	return nl, nr
}

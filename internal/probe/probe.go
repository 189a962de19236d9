// Package probe implements the tid→child probe structures used by the W and
// S steps: while the winning attribute's list is scanned (W), each record's
// destination child is recorded in the probe; while the losing attributes'
// lists are split (S), the probe is consulted per record.
//
// The paper (§3.2.1) discusses three designs, all implemented here:
//
//  1. a global bit probe with one bit per training tuple (the choice used by
//     BASIC "for simplicity"),
//  2. a per-leaf hash table holding only the smaller child's tids,
//  3. a per-leaf bit probe over tids relabeled from zero, which requires
//     rewriting tids as lists are split.
//
// All designs present the same per-leaf interface; the relabeling design
// additionally remaps tids, which the split step applies when writing child
// records.
package probe

import (
	"fmt"
	"math/bits"
	"sync/atomic"
)

// Kind selects a probe design.
type Kind int

const (
	// GlobalBit is one shared bit array indexed by tid (paper's default).
	GlobalBit Kind = iota
	// LeafHash is a per-leaf hash set of the smaller child's tids.
	LeafHash
	// LeafRelabel is a per-leaf bit array over zero-based relabeled tids;
	// child records receive fresh dense tids on every split.
	LeafRelabel
)

// String names the probe kind.
func (k Kind) String() string {
	switch k {
	case GlobalBit:
		return "global-bit"
	case LeafHash:
		return "leaf-hash"
	case LeafRelabel:
		return "leaf-relabel"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Leaf is the probe for a single leaf being split. Set is called only by the
// single W executor of that leaf; after Seal, Left and Remap may be called
// concurrently by many S workers.
type Leaf interface {
	// Set records the destination child of tid.
	Set(tid uint32, left bool)
	// Seal finalizes the probe after the W scan; it must be called before
	// any Left/Remap call.
	Seal()
	// Left reports whether tid goes to the left child.
	Left(tid uint32) bool
	// Remap returns the tid a child record should carry. It is the
	// identity except for the relabeling design, which assigns each child
	// dense tids 0..n_child-1 in parent-tid order.
	Remap(tid uint32) uint32
	// Release frees per-leaf resources.
	Release()
}

// RawBits is implemented by the bit-array probe designs. It exposes the
// underlying word array so the split kernel can test membership, and for
// the relabel design compute the child tid, without an interface call per
// record. The global design shares its words with other leaves' concurrent
// W writers, so readers load words atomically. rank is nil except for the
// relabel design, the one design that rewrites tids (so list tids stay
// dense per leaf across levels): there rank[w] counts the set bits of
// words[0..w), so a tid's rank among its side is rank[tid/64] plus one
// popcount (see Remap).
type RawBits interface {
	RawBits() (words []uint64, rank []uint32)
}

// Factory creates per-leaf probes.
type Factory interface {
	// ForLeaf returns the probe for a leaf whose winning split sends
	// nLeft and nRight records to its children.
	ForLeaf(nLeft, nRight int64) Leaf
	// Kind reports the design.
	Kind() Kind
}

// NewFactory builds a factory of the given kind. totalTuples is the training
// set size (needed by the global design).
func NewFactory(kind Kind, totalTuples int) (Factory, error) {
	switch kind {
	case GlobalBit:
		return &globalFactory{words: make([]uint64, (totalTuples+63)/64)}, nil
	case LeafHash:
		return hashFactory{}, nil
	case LeafRelabel:
		return relabelFactory{}, nil
	default:
		return nil, fmt.Errorf("probe: unknown kind %d", int(kind))
	}
}

// globalFactory shares one bit array among all leaves; leaves at a level
// have disjoint tid sets, so concurrent W scans touch disjoint bits (atomic
// word updates keep neighbors safe).
type globalFactory struct {
	words []uint64
}

func (f *globalFactory) Kind() Kind { return GlobalBit }

func (f *globalFactory) ForLeaf(nLeft, nRight int64) Leaf { return (*globalLeaf)(f) }

type globalLeaf globalFactory

func (g *globalLeaf) Set(tid uint32, left bool) {
	w := &g.words[tid/64]
	mask := uint64(1) << (tid % 64)
	if left {
		atomic.OrUint64(w, mask)
	} else {
		atomic.AndUint64(w, ^mask)
	}
}

func (g *globalLeaf) Seal() {}

func (g *globalLeaf) Left(tid uint32) bool {
	return atomic.LoadUint64(&g.words[tid/64])&(1<<(tid%64)) != 0
}

func (g *globalLeaf) Remap(tid uint32) uint32 { return tid }
func (g *globalLeaf) Release()                {}

// RawBits implements RawBits; the array is shared across leaves, so readers
// must load words atomically.
func (g *globalLeaf) RawBits() ([]uint64, []uint32) { return g.words, nil }

// WBatch write-combines GlobalBit Set calls from one W executor: bits are
// accumulated in worker-local shadow words and flushed with one atomic Or
// and one atomic AndNot per touched word — two atomic RMWs per 64 tids
// instead of one per record. Correctness with concurrent leaves follows
// from tid-disjointness: a level's leaves own disjoint tid sets, so the
// masks flushed by different executors never overlap within a word and the
// word-level atomics compose. The record-data-parallel scheme's per-worker
// batches over one leaf are safe for the same reason (disjoint chunk tids).
type WBatch struct {
	or, clr []uint64
	touched []uint32
	leaf    *globalLeaf
}

// NewWBatch sizes a batch for a training set of totalTuples tuples.
func NewWBatch(totalTuples int) *WBatch {
	words := (totalTuples + 63) / 64
	return &WBatch{
		or:      make([]uint64, words),
		clr:     make([]uint64, words),
		touched: make([]uint32, 0, words),
	}
}

// Begin arms the batch for one leaf's W scan. It reports false — and leaves
// the batch disarmed — for probe designs other than the global bit array;
// callers then fall back to per-record Leaf.Set.
func (b *WBatch) Begin(l Leaf) bool {
	g, ok := l.(*globalLeaf)
	if !ok {
		return false
	}
	b.leaf = g
	return true
}

// Set records tid's destination in the local shadow words.
func (b *WBatch) Set(tid uint32, left bool) {
	w := tid >> 6
	if b.or[w]|b.clr[w] == 0 {
		b.touched = append(b.touched, w)
	}
	if left {
		b.or[w] |= 1 << (tid & 63)
	} else {
		b.clr[w] |= 1 << (tid & 63)
	}
}

// Flush publishes the batched bits into the shared array and disarms the
// batch. It must run before the leaf's Seal.
func (b *WBatch) Flush() {
	g := b.leaf
	if g == nil {
		return
	}
	for _, w := range b.touched {
		if m := b.or[w]; m != 0 {
			atomic.OrUint64(&g.words[w], m)
			b.or[w] = 0
		}
		if m := b.clr[w]; m != 0 {
			atomic.AndUint64(&g.words[w], ^m)
			b.clr[w] = 0
		}
	}
	b.touched = b.touched[:0]
	b.leaf = nil
}

// hashFactory creates per-leaf hash sets holding only the smaller child's
// tids ("the size of each leaf's hash table can be reduced by keeping only
// the smaller child's tids, since the other records must necessarily belong
// to the other child").
type hashFactory struct{}

func (hashFactory) Kind() Kind { return LeafHash }

func (hashFactory) ForLeaf(nLeft, nRight int64) Leaf {
	smallerLeft := nLeft <= nRight
	n := nLeft
	if !smallerLeft {
		n = nRight
	}
	// Presize for the smaller child at load factor ≤ 1/2 so inserts never
	// rehash and probes stay short.
	size := 8
	for int64(size) < 2*n {
		size *= 2
	}
	return &hashLeaf{
		slots:       make([]uint32, size),
		mask:        uint32(size - 1),
		smallerLeft: smallerLeft,
	}
}

// hashLeaf is an open-addressed (linear probing) set of the smaller child's
// tids. Slots hold tid+1 so zero means empty; tids are tuple indices, far
// below MaxUint32. Single W writer, concurrent sealed readers.
type hashLeaf struct {
	slots       []uint32
	mask        uint32
	smallerLeft bool
}

func (h *hashLeaf) bucket(tid uint32) uint32 {
	return (tid * 2654435761) & h.mask // Fibonacci hashing
}

func (h *hashLeaf) Set(tid uint32, left bool) {
	if left != h.smallerLeft {
		return
	}
	key := tid + 1
	for i := h.bucket(tid); ; i = (i + 1) & h.mask {
		switch h.slots[i] {
		case 0:
			h.slots[i] = key
			return
		case key:
			return
		}
	}
}

func (h *hashLeaf) Seal() {}

func (h *hashLeaf) Left(tid uint32) bool {
	key := tid + 1
	in := false
	for i := h.bucket(tid); h.slots[i] != 0; i = (i + 1) & h.mask {
		if h.slots[i] == key {
			in = true
			break
		}
	}
	return in == h.smallerLeft
}

func (h *hashLeaf) Remap(tid uint32) uint32 { return tid }
func (h *hashLeaf) Release()                { h.slots = nil }

// relabelFactory creates per-leaf dense bit probes. It relies on the engine
// writing remapped tids so that every leaf's tids are 0..n-1; the per-leaf
// probe is then a bit array plus a popcount rank index that yields each
// child's dense new tid in O(1).
type relabelFactory struct{}

func (relabelFactory) Kind() Kind { return LeafRelabel }

func (relabelFactory) ForLeaf(nLeft, nRight int64) Leaf {
	n := nLeft + nRight
	return &relabelLeaf{
		n:     n,
		words: make([]uint64, (n+63)/64),
	}
}

type relabelLeaf struct {
	n     int64
	words []uint64
	rank  []uint32 // rank[i] = number of set bits in words[0..i)
}

func (r *relabelLeaf) Set(tid uint32, left bool) {
	if left {
		r.words[tid/64] |= 1 << (tid % 64)
	}
}

func (r *relabelLeaf) Seal() {
	r.rank = make([]uint32, len(r.words)+1)
	var c uint32
	for i, w := range r.words {
		r.rank[i] = c
		c += uint32(bits.OnesCount64(w))
	}
	r.rank[len(r.words)] = c
}

func (r *relabelLeaf) Left(tid uint32) bool {
	return r.words[tid/64]&(1<<(tid%64)) != 0
}

// rank1 returns the number of left tids strictly below tid.
func (r *relabelLeaf) rank1(tid uint32) uint32 {
	w := tid / 64
	mask := uint64(1)<<(tid%64) - 1
	return r.rank[w] + uint32(bits.OnesCount64(r.words[w]&mask))
}

func (r *relabelLeaf) Remap(tid uint32) uint32 {
	below := r.rank1(tid)
	if r.Left(tid) {
		return below
	}
	return tid - below
}

func (r *relabelLeaf) Release() {
	r.words = nil
	r.rank = nil
}

// RawBits implements RawBits; the array and its rank index are private to
// the leaf and sealed before S readers start.
func (r *relabelLeaf) RawBits() ([]uint64, []uint32) { return r.words, r.rank }

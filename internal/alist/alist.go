// Package alist implements SPRINT attribute lists and their storage.
//
// An attribute list holds one record per training tuple: the tuple's value
// for that attribute, its class label, and its tuple identifier (tid). Lists
// for continuous attributes are sorted by value once at setup; splits
// preserve order so no re-sorting is ever needed (paper §2.1).
//
// Storage is abstracted behind Store with two implementations:
//
//   - MemStore keeps lists in memory — the paper's "Machine B" large-memory
//     configuration.
//   - FileStore keeps lists in binary disk files — the paper's "Machine A"
//     local-disk configuration, including the fixed physical-file reuse
//     scheme (§2.3 "Avoiding multiple attribute lists" and §3.2.2
//     "Managing attribute files").
//
// A Store exposes, per attribute, a fixed set of numbered slots (physical
// files). Each slot holds the concatenated lists of the leaves assigned to
// it; a leaf's list occupies a contiguous region whose offset is reserved up
// front (list sizes are known exactly: every attribute list of a leaf has
// one record per tuple in the leaf). Reservation is atomic, so concurrent
// splitters never interleave records.
package alist

import (
	"fmt"
	"sync"

	"repro/internal/dataset"
)

// Record is one attribute-list entry. For categorical attributes Value holds
// the category code (exactly representable in a float64).
type Record struct {
	Value float64
	Tid   uint32
	Class int32
}

// RecordSize is the on-disk encoding size of a Record in bytes.
const RecordSize = 16

// Store is the storage backend for attribute lists. Implementations must
// support concurrent Reserve/WriteAt/Scan on distinct regions.
type Store interface {
	// NumSlots returns the current number of slots per attribute.
	NumSlots() int
	// EnsureSlots grows every attribute to at least n slots.
	EnsureSlots(n int) error
	// Len returns the number of records currently reserved in a slot.
	Len(attr, slot int) int64
	// Reserve atomically reserves space for n records in the given slot
	// and returns the record offset of the reserved region.
	Reserve(attr, slot int, n int) (int64, error)
	// WriteAt writes records into a previously reserved region starting
	// at record offset off.
	WriteAt(attr, slot int, off int64, recs []Record) error
	// Scan streams n records starting at record offset off to fn in
	// order, possibly in several chunks. The slice passed to fn is only
	// valid during the call.
	Scan(attr, slot int, off int64, n int, fn func([]Record) error) error
	// Reset empties a slot so it can be reused for a later level.
	Reset(attr, slot int) error
	// Close releases all resources (files, buffers).
	Close() error
}

// FromTable builds the initial (unsorted) attribute list of attribute a.
// Tids are tuple indices.
func FromTable(t *dataset.Table, a int) []Record {
	n := t.NumTuples()
	recs := make([]Record, n)
	if t.Schema().Attrs[a].Kind == dataset.Continuous {
		col := t.ContColumn(a)
		for i := 0; i < n; i++ {
			recs[i] = Record{Value: col[i], Tid: uint32(i), Class: t.Class(i)}
		}
	} else {
		col := t.CatColumn(a)
		for i := 0; i < n; i++ {
			recs[i] = Record{Value: float64(col[i]), Tid: uint32(i), Class: t.Class(i)}
		}
	}
	return recs
}

// Appender buffers sequential writes into a reserved region of a slot. A
// zero Appender is not usable; obtain one with NewAppender or reuse an old
// one (keeping its buffer) with Reset.
type Appender struct {
	st         Store
	attr, slot int
	off        int64 // next write offset
	remaining  int   // records still allowed
	buf        []Record
}

// AppenderChunk is the Appender flush threshold in records.
const AppenderChunk = 4096

// NewAppender creates an appender over a region of n records starting at
// record offset off (obtained from Reserve).
func NewAppender(st Store, attr, slot int, off int64, n int) *Appender {
	ap := &Appender{}
	ap.Reset(st, attr, slot, off, n)
	return ap
}

// Reset points the appender at a new region, retaining the internal buffer
// so a worker can reuse one appender across split units without allocating.
// The buffer always holds AppenderChunk records, whatever the region's size:
// Stage hands out its free tail, and a staging kernel that writes both of a
// split's sides at every record needs room on each side even when one
// region is tiny.
func (ap *Appender) Reset(st Store, attr, slot int, off int64, n int) {
	ap.st, ap.attr, ap.slot = st, attr, slot
	ap.off, ap.remaining = off, n
	if cap(ap.buf) < AppenderChunk {
		ap.buf = make([]Record, 0, AppenderChunk)
	} else {
		ap.buf = ap.buf[:0]
	}
}

// Append adds one record; a full buffer is flushed before the next record
// is staged, and Close flushes the rest.
func (ap *Appender) Append(r Record) error {
	dst, err := ap.Stage()
	if err != nil {
		return err
	}
	dst[0] = r
	return ap.Commit(1)
}

// Stage returns the free tail of the internal buffer, flushing it first when
// it is full, so the result always holds at least one record. A caller
// writes records into it and then Commits how many of them, in order, belong
// to the region; whatever lies past that count is scratch and is
// overwritten by the next Stage.
func (ap *Appender) Stage() ([]Record, error) {
	if len(ap.buf) == cap(ap.buf) {
		if err := ap.Flush(); err != nil {
			return nil, err
		}
	}
	return ap.buf[len(ap.buf):cap(ap.buf)], nil
}

// Commit appends the first k records of the last Stage to the region. It
// fails, appending nothing, when the region has room for fewer than k.
func (ap *Appender) Commit(k int) error {
	if k > ap.remaining {
		return fmt.Errorf("alist: appender region overflow by %d records (attr %d slot %d)",
			k-ap.remaining, ap.attr, ap.slot)
	}
	ap.remaining -= k
	ap.buf = ap.buf[:len(ap.buf)+k]
	return nil
}

// Flush writes any buffered records.
func (ap *Appender) Flush() error {
	if len(ap.buf) == 0 {
		return nil
	}
	if err := ap.st.WriteAt(ap.attr, ap.slot, ap.off, ap.buf); err != nil {
		return err
	}
	ap.off += int64(len(ap.buf))
	ap.buf = ap.buf[:0]
	return nil
}

// Close flushes and verifies the region was filled exactly.
func (ap *Appender) Close() error {
	if err := ap.Flush(); err != nil {
		return err
	}
	if ap.remaining != 0 {
		return fmt.Errorf("alist: appender region underfilled by %d records (attr %d slot %d)",
			ap.remaining, ap.attr, ap.slot)
	}
	return nil
}

// MemStore keeps attribute lists in memory. It corresponds to the paper's
// large-memory configuration where all temporary lists stay cached.
type MemStore struct {
	mu    sync.RWMutex
	nattr int
	segs  [][]segment // [attr][slot]
}

type segment struct {
	recs []Record
	used int64
}

// NewMemStore creates a memory store with the given attribute and slot
// counts.
func NewMemStore(nattr, slots int) *MemStore {
	st := &MemStore{nattr: nattr, segs: make([][]segment, nattr)}
	for a := range st.segs {
		st.segs[a] = make([]segment, slots)
	}
	return st
}

// NumSlots implements Store.
func (st *MemStore) NumSlots() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	if len(st.segs) == 0 {
		return 0
	}
	return len(st.segs[0])
}

// EnsureSlots implements Store.
func (st *MemStore) EnsureSlots(n int) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	for a := range st.segs {
		for len(st.segs[a]) < n {
			st.segs[a] = append(st.segs[a], segment{})
		}
	}
	return nil
}

func (st *MemStore) checkSlot(attr, slot int) error {
	if attr < 0 || attr >= st.nattr {
		return fmt.Errorf("alist: attribute %d out of range [0,%d)", attr, st.nattr)
	}
	if slot < 0 || slot >= len(st.segs[attr]) {
		return fmt.Errorf("alist: slot %d out of range [0,%d)", slot, len(st.segs[attr]))
	}
	return nil
}

// Len implements Store.
func (st *MemStore) Len(attr, slot int) int64 {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.segs[attr][slot].used
}

// Reserve implements Store.
func (st *MemStore) Reserve(attr, slot int, n int) (int64, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := st.checkSlot(attr, slot); err != nil {
		return 0, err
	}
	seg := &st.segs[attr][slot]
	off := seg.used
	seg.used += int64(n)
	if int64(len(seg.recs)) < seg.used {
		if int64(cap(seg.recs)) >= seg.used {
			// Reset kept the capacity from an earlier level: reuse it
			// without touching the allocator.
			seg.recs = seg.recs[:seg.used]
		} else {
			// Grow with doubling so a slot reaches its steady-state
			// capacity in O(log n) allocations, after which every level
			// reuses it allocation-free.
			newCap := 2 * int64(cap(seg.recs))
			if newCap < seg.used {
				newCap = seg.used
			}
			grown := make([]Record, seg.used, newCap)
			copy(grown, seg.recs)
			seg.recs = grown
		}
	}
	return off, nil
}

// WriteAt implements Store. When recs is a chunk handed out by Scan, the
// copy below moves records directly from the source segment into the
// destination segment — the zero-copy split fast path (no staging buffer).
func (st *MemStore) WriteAt(attr, slot int, off int64, recs []Record) error {
	st.mu.RLock()
	defer st.mu.RUnlock()
	if err := st.checkSlot(attr, slot); err != nil {
		return err
	}
	seg := &st.segs[attr][slot]
	if off < 0 || off+int64(len(recs)) > seg.used {
		return fmt.Errorf("alist: write [%d,%d) outside reserved [0,%d) (attr %d slot %d)",
			off, off+int64(len(recs)), seg.used, attr, slot)
	}
	copy(seg.recs[off:], recs)
	return nil
}

// Scan implements Store.
func (st *MemStore) Scan(attr, slot int, off int64, n int, fn func([]Record) error) error {
	st.mu.RLock()
	if err := st.checkSlot(attr, slot); err != nil {
		st.mu.RUnlock()
		return err
	}
	seg := &st.segs[attr][slot]
	if off < 0 || off+int64(n) > seg.used {
		st.mu.RUnlock()
		return fmt.Errorf("alist: scan [%d,%d) outside [0,%d) (attr %d slot %d)",
			off, off+int64(n), seg.used, attr, slot)
	}
	recs := seg.recs[off : off+int64(n)]
	st.mu.RUnlock()
	if n == 0 {
		return nil
	}
	return fn(recs)
}

// Reset implements Store.
func (st *MemStore) Reset(attr, slot int) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := st.checkSlot(attr, slot); err != nil {
		return err
	}
	seg := &st.segs[attr][slot]
	seg.used = 0
	// Keep capacity: slot reuse across levels is the point of the scheme.
	return nil
}

// Close implements Store.
func (st *MemStore) Close() error { return nil }

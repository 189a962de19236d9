// Package ingest holds the online-learning half of the serving stack: a
// bounded, concurrency-safe window of labeled rows appended by POST
// /v1/ingest, and the retrain-with-tripwire step that periodically rebuilds
// a candidate model on the window and decides whether it may replace the
// serving model. The window is a fixed-capacity ring over columnar storage
// (one slice per attribute, like dataset.Table), so steady-state ingest
// overwrites the oldest rows in place and never allocates.
package ingest

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"

	"repro/internal/dataset"
)

// Window is a bounded ring buffer of labeled rows, schema-validated on the
// way in. All methods are safe for concurrent use.
type Window struct {
	schema   *dataset.Schema
	capacity int
	// catCodes[a] maps category name → code for categorical attribute a
	// (nil for continuous); classCodes maps class label → code. Both are
	// precomputed so Decode is map lookups, mirroring parclass.rowDecoder.
	catCodes   []map[string]int32
	classCodes map[string]int32

	mu    sync.Mutex
	cont  [][]float64 // per attribute, len capacity; nil for categorical
	cat   [][]int32   // per attribute, len capacity; nil for continuous
	class []int32     // len capacity
	total int64       // rows ever appended; total % capacity is the next slot
}

// NewWindow builds an empty window bound to schema.
func NewWindow(schema *dataset.Schema, capacity int) (*Window, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("ingest: window capacity must be positive, got %d", capacity)
	}
	if err := schema.Validate(); err != nil {
		return nil, fmt.Errorf("ingest: %w", err)
	}
	w := &Window{
		schema:     schema,
		capacity:   capacity,
		catCodes:   make([]map[string]int32, len(schema.Attrs)),
		classCodes: make(map[string]int32, len(schema.Classes)),
		cont:       make([][]float64, len(schema.Attrs)),
		cat:        make([][]int32, len(schema.Attrs)),
		class:      make([]int32, capacity),
	}
	for a := range schema.Attrs {
		attr := &schema.Attrs[a]
		if attr.Kind == dataset.Continuous {
			w.cont[a] = make([]float64, capacity)
			continue
		}
		w.cat[a] = make([]int32, capacity)
		codes := make(map[string]int32, len(attr.Categories))
		for c, name := range attr.Categories {
			codes[name] = int32(c)
		}
		w.catCodes[a] = codes
	}
	for c, name := range schema.Classes {
		w.classCodes[name] = int32(c)
	}
	return w, nil
}

// Schema returns the schema rows are validated against.
func (w *Window) Schema() *dataset.Schema { return w.schema }

// Capacity returns the fixed row capacity.
func (w *Window) Capacity() int { return w.capacity }

// Size returns the number of rows currently held (≤ Capacity).
func (w *Window) Size() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.sizeLocked()
}

func (w *Window) sizeLocked() int {
	if w.total < int64(w.capacity) {
		return int(w.total)
	}
	return w.capacity
}

// Total returns the number of rows ever appended, including rows the ring
// has since overwritten.
func (w *Window) Total() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.total
}

// Decode validates one positional row (one string per schema attribute, in
// schema order) plus its class label, returning the encoded tuple. It does
// not touch the ring; pair with Append/AppendRows so a bulk request can be
// validated in full before any row lands (all-or-nothing ingest).
func (w *Window) Decode(vals []string, class string) (dataset.Tuple, error) {
	s := w.schema
	if len(vals) != len(s.Attrs) {
		return dataset.Tuple{}, fmt.Errorf("ingest: got %d values, schema has %d attributes", len(vals), len(s.Attrs))
	}
	tu := dataset.Tuple{
		Cont: make([]float64, len(s.Attrs)),
		Cat:  make([]int32, len(s.Attrs)),
	}
	for a := range s.Attrs {
		attr := &s.Attrs[a]
		raw := vals[a]
		if attr.Kind == dataset.Continuous {
			v, err := strconv.ParseFloat(raw, 64)
			if err != nil {
				if v, err = strconv.ParseFloat(strings.TrimSpace(raw), 64); err != nil {
					return dataset.Tuple{}, fmt.Errorf("ingest: attribute %q: %v", attr.Name, err)
				}
			}
			// Every later retrain reads the window, and the split search
			// admits neither NaN nor ±Inf.
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return dataset.Tuple{}, fmt.Errorf("ingest: attribute %q: non-finite value %q", attr.Name, raw)
			}
			tu.Cont[a] = v
			continue
		}
		code, ok := w.catCodes[a][raw]
		if !ok {
			return dataset.Tuple{}, fmt.Errorf("ingest: attribute %q: unknown category %q", attr.Name, raw)
		}
		tu.Cat[a] = code
	}
	code, ok := w.classCodes[class]
	if !ok {
		return dataset.Tuple{}, fmt.Errorf("ingest: unknown class %q", class)
	}
	tu.Class = code
	return tu, nil
}

// Append adds one decoded tuple, overwriting the oldest row once the ring
// is full. The tuple's codes must be in range (Decode guarantees this).
func (w *Window) Append(tu dataset.Tuple) {
	w.mu.Lock()
	w.appendLocked(tu)
	w.mu.Unlock()
}

// AppendRows adds a batch of decoded tuples under one lock acquisition, so
// a bulk ingest lands contiguously even under concurrent writers.
func (w *Window) AppendRows(tus []dataset.Tuple) {
	w.mu.Lock()
	for _, tu := range tus {
		w.appendLocked(tu)
	}
	w.mu.Unlock()
}

func (w *Window) appendLocked(tu dataset.Tuple) {
	slot := int(w.total % int64(w.capacity))
	for a := range w.schema.Attrs {
		if w.cont[a] != nil {
			w.cont[a][slot] = tu.Cont[a]
		} else {
			w.cat[a][slot] = tu.Cat[a]
		}
	}
	w.class[slot] = tu.Class
	w.total++
}

// Snapshot materializes the window's current rows in arrival order as
// train and holdout tables: every holdoutEvery-th row (the k-1, 2k-1, …
// positions) goes to the holdout, the rest to train. holdoutEvery < 2
// sends every row to train and returns an empty holdout. The returned
// tables are copies; later ingest does not disturb them.
func (w *Window) Snapshot(holdoutEvery int) (train, holdout *dataset.Table) {
	// NewTable only fails on an invalid schema, which NewWindow rejected.
	train, _ = dataset.NewTable(w.schema)
	holdout, _ = dataset.NewTable(w.schema)

	w.mu.Lock()
	defer w.mu.Unlock()
	n := w.sizeLocked()
	start := 0
	if w.total > int64(w.capacity) {
		start = int(w.total % int64(w.capacity)) // oldest surviving row
	}
	train.Grow(n)
	if holdoutEvery >= 2 {
		holdout.Grow(n/holdoutEvery + 1)
	}
	tu := dataset.Tuple{
		Cont: make([]float64, len(w.schema.Attrs)),
		Cat:  make([]int32, len(w.schema.Attrs)),
	}
	for i := 0; i < n; i++ {
		slot := (start + i) % w.capacity
		for a := range w.schema.Attrs {
			if w.cont[a] != nil {
				tu.Cont[a] = w.cont[a][slot]
			} else {
				tu.Cat[a] = w.cat[a][slot]
			}
		}
		tu.Class = w.class[slot]
		if holdoutEvery >= 2 && i%holdoutEvery == holdoutEvery-1 {
			holdout.AppendFast(tu)
		} else {
			train.AppendFast(tu)
		}
	}
	return train, holdout
}

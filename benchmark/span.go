package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from outside the program:
// the benchmark wraps its own calls, the product code is not instrumented.
type span struct {
	ID       int64  `json:"id"`
	Parent   int64  `json:"parent"` // 0 for a root
	Workload string `json:"workload"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until write. A nil *tracer (the untraced
// run) hands out nil lanes, on which every method is a no-op.
type tracer struct {
	workload string
	t0       time.Time
	nextID   atomic.Int64

	mu    sync.Mutex
	lanes []*lane
}

// lane is one goroutine's span buffer, so the timed path takes no lock.
type lane struct {
	tr    *tracer
	spans []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

func (t *tracer) lane() *lane {
	if t == nil {
		return nil
	}
	l := &lane{tr: t}
	t.mu.Lock()
	t.lanes = append(t.lanes, l)
	t.mu.Unlock()
	return l
}

// add records a finished span from timestamps the caller already took.
func (l *lane) add(parent int64, name string, start, end time.Time) int64 {
	if l == nil {
		return 0
	}
	id := l.tr.nextID.Add(1)
	l.spans = append(l.spans, span{
		ID: id, Parent: parent, Workload: l.tr.workload, Name: name,
		StartNS: start.Sub(l.tr.t0).Nanoseconds(), EndNS: end.Sub(l.tr.t0).Nanoseconds(),
	})
	return id
}

// open starts a span that encloses others; call the returned func to end it.
func (l *lane) open(parent int64, name string) (id int64, end func()) {
	if l == nil {
		return 0, func() {}
	}
	id = l.add(parent, name, time.Now(), time.Now())
	i := len(l.spans) - 1
	return id, func() { l.spans[i].EndNS = time.Since(l.tr.t0).Nanoseconds() }
}

// traceFile is the document written to <out>/trace.json.
type traceFile struct {
	Workload string `json:"workload"`
	Spans    []span `json:"spans"`
	// SelfNS is, per span name, the total duration of its spans minus the
	// part their direct children cover: the layer's self time.
	SelfNS map[string]int64 `json:"self_ns"`
}

// covered is the length of the union of the spans' intervals: children on
// two connections overlap, and an interval both cover counts once.
func covered(spans []span) int64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].StartNS < spans[j].StartNS })
	var total, end int64
	for _, s := range spans {
		if s.StartNS > end {
			end = s.StartNS
		}
		if s.EndNS > end {
			total += s.EndNS - end
			end = s.EndNS
		}
	}
	return total
}

func (t *tracer) write(dir string) error {
	if t == nil {
		return nil
	}
	doc := traceFile{Workload: t.workload, SelfNS: map[string]int64{}}
	for _, l := range t.lanes {
		doc.Spans = append(doc.Spans, l.spans...)
	}
	kids := map[int64][]span{}
	for _, s := range doc.Spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	for _, s := range doc.Spans {
		doc.SelfNS[s.Name] += s.EndNS - s.StartNS - covered(kids[s.ID])
	}
	raw, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace.json"), raw, 0o644)
}

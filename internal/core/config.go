// Package core implements the paper's contribution: decision-tree growth on
// shared-memory multiprocessors. It contains serial SPRINT plus the four SMP
// schemes — BASIC, FWK (Fixed-Window-K), MWK (Moving-Window-K) and SUBTREE
// (optionally with the MWK subroutine of §3.4) — implemented with goroutines
// and the synchronization structures the paper describes (dynamic attribute
// scheduling with an atomic counter, barriers, per-leaf condition variables,
// and a FREE queue of idle processors), plus the record-data-parallel
// baseline of §3.1 for comparison.
//
// A processor group is the one unit the level-synchronous list schemes run
// on, and each policy's level is written once (levelBasic, levelFWK,
// levelMWK): BASIC, FWK and MWK run one group of all processors level after
// level, and SUBTREE runs the BASIC or MWK level on the groups it splits
// and re-forms. Every engine starts its workers through sched.Spawn and
// latches failures in the build's one error latch.
package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/alist"
	"repro/internal/probe"
	"repro/internal/trace"
)

// Algorithm selects a tree-growth scheme.
type Algorithm int

const (
	// Serial is uniprocessor SPRINT (paper §2).
	Serial Algorithm = iota
	// Basic is attribute data parallelism with a serial W step (§3.2.1).
	Basic
	// FWK pipelines W with E over a fixed window of K leaves (§3.2.2).
	FWK
	// MWK replaces FWK's block barrier with per-leaf condition variables
	// over a moving window of K leaves (§3.2.3).
	MWK
	// Subtree is dynamic subtree task parallelism with processor groups
	// and a FREE queue (§3.3).
	Subtree
	// RecPar is record data parallelism — each processor owns 1/P of every
	// attribute list — the distributed-memory SPRINT design the paper
	// argues against for SMPs (§3.1). Provided as a comparison baseline.
	RecPar
	// Hist is the approximate histogram-binned engine: continuous
	// attributes are pre-binned by a one-pass quantile sketch, split
	// search runs over per-node class×bin histograms, and nodes are
	// partitioned by permuting a row-index array — no attribute lists, no
	// sort, no S-step rewriting. Splits are approximate (bin boundaries
	// only) but builds scale to row counts the exact engines cannot reach.
	Hist
)

// String names the algorithm as the paper does.
func (a Algorithm) String() string {
	switch a {
	case Serial:
		return "SERIAL"
	case Basic:
		return "BASIC"
	case FWK:
		return "FWK"
	case MWK:
		return "MWK"
	case Subtree:
		return "SUBTREE"
	case RecPar:
		return "RECPAR"
	case Hist:
		return "HIST"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Storage selects the attribute-list backend.
type Storage int

const (
	// Memory keeps attribute lists in memory (the paper's "Machine B"
	// large-memory configuration).
	Memory Storage = iota
	// Disk keeps attribute lists in binary files under TempDir (the
	// paper's "Machine A" local-disk configuration).
	Disk
)

// String names the storage backend.
func (s Storage) String() string {
	switch s {
	case Memory:
		return "memory"
	case Disk:
		return "disk"
	default:
		return fmt.Sprintf("Storage(%d)", int(s))
	}
}

// Config parameterizes a build.
type Config struct {
	// Algorithm selects the growth scheme. Default Serial.
	Algorithm Algorithm
	// Procs is the number of worker "processors" (goroutines) for the
	// parallel schemes, and for the setup phase of every attribute-list
	// scheme, Serial included. Default 1.
	Procs int
	// WindowK is the window size K of FWK and MWK. Default 4, the value
	// the paper found to work well in practice.
	WindowK int
	// Probe selects the tid→child probe design. Default GlobalBit.
	Probe probe.Kind
	// Storage selects the attribute-list backend. Default Memory.
	Storage Storage
	// TempDir is the directory for Disk storage files; defaults to a
	// fresh directory under os.TempDir().
	TempDir string
	// CombinedFiles, with Disk storage, stores all attributes' records in
	// one striped physical file per slot (the paper's §2.3 refinement:
	// "a total of 4 physical files" for the serial/BASIC scheme).
	CombinedFiles bool
	// MinSplit stops splitting leaves with fewer tuples. Default 2.
	MinSplit int64
	// MaxDepth bounds the tree depth when > 0 (root = depth 0).
	MaxDepth int
	// MinGiniGain requires a split to reduce the node's gini by at least
	// this much. Default 0 (pure SPRINT: split whenever a valid split
	// exists and the node is mixed).
	MinGiniGain float64
	// MaxEnumCard overrides the categorical subset-enumeration threshold
	// when > 0 (see split.MaxEnumCard).
	MaxEnumCard int
	// MaxBins is the Hist engine's bin budget per continuous attribute.
	// Default 256; valid range 2..65536 (bin indices are uint16).
	MaxBins int
	// SubtreeInner selects the algorithm SUBTREE groups run per level:
	// Basic (default, the paper's Fig. 7) or MWK — the hybrid the paper
	// suggests in §3.4 ("we can also use FWK or MWK as the subroutine").
	SubtreeInner Algorithm
	// Trace, when non-nil, is filled with measured per-work-unit costs.
	// Cost tracing forces the work itself to run serially (the paper's
	// profiling configuration) regardless of Algorithm.
	Trace *trace.Trace
	// Recorder, when non-nil, receives the build's per-worker E/W/S,
	// barrier-wait and queue-idle durations live (the observability
	// layer). When nil Build creates a private one: instrumentation is
	// always on and costs two monotonic clock reads per work unit, which
	// the large scan-bound units amortize to <2% of build time.
	Recorder *trace.Recorder
	// Context, when non-nil, cancels the build: workers observe
	// cancellation at work-unit granularity and Build returns ctx.Err().
	Context context.Context
	// Retry bounds the retry-with-backoff applied to transient store
	// faults (see alist.Retrying). The zero value selects
	// alist.DefaultRetry (3 attempts); MaxAttempts 1 disables retrying.
	Retry alist.RetryPolicy
	// AttrMask, when non-nil, restricts the split search to attributes a
	// with AttrMask[a] true — per-tree feature subsampling for forest
	// builds. Masked attributes keep their lists (the schema is shared by
	// every tree of a forest) but never produce a split candidate. Length
	// must equal the schema's attribute count.
	AttrMask []bool
	// StoreWrap, when non-nil, wraps the store Build ends up with (created
	// or overridden) before the retry layer is applied; used by chaos
	// tests — and the forest trainer's fault plans — to inject faults
	// beneath the retry path.
	StoreWrap func(alist.Store) alist.Store

	// storeOverride substitutes the attribute-list store; used by tests
	// for fault injection.
	storeOverride alist.Store
	// histHook, when non-nil, is called by every Hist work unit with the
	// phase name and worker id before the unit runs; a returned error
	// aborts the build. The Hist engine touches no store, so its chaos
	// tests inject panics and faults here instead of through StoreWrap.
	histHook func(phase string, worker int) error
}

// withDefaults fills zero fields with defaults and validates.
func (c Config) withDefaults() (Config, error) {
	if c.Procs == 0 {
		c.Procs = 1
	}
	if c.Procs < 1 {
		return c, fmt.Errorf("core: Procs must be >= 1, got %d", c.Procs)
	}
	if c.WindowK == 0 {
		c.WindowK = 4
	}
	if c.WindowK < 1 {
		return c, fmt.Errorf("core: WindowK must be >= 1, got %d", c.WindowK)
	}
	if c.MinSplit == 0 {
		c.MinSplit = 2
	}
	if c.MinSplit < 2 {
		return c, fmt.Errorf("core: MinSplit must be >= 2, got %d", c.MinSplit)
	}
	if c.MaxDepth < 0 {
		return c, fmt.Errorf("core: MaxDepth must be >= 0, got %d", c.MaxDepth)
	}
	if c.MinGiniGain < 0 {
		return c, fmt.Errorf("core: MinGiniGain must be >= 0, got %g", c.MinGiniGain)
	}
	switch c.Algorithm {
	case Serial, Basic, FWK, MWK, Subtree, RecPar, Hist:
	default:
		return c, fmt.Errorf("core: unknown algorithm %d", int(c.Algorithm))
	}
	if c.MaxBins == 0 {
		c.MaxBins = 256
	}
	if c.MaxBins < 2 || c.MaxBins > 65536 {
		return c, fmt.Errorf("core: MaxBins must be in [2,65536], got %d", c.MaxBins)
	}
	if c.Algorithm == RecPar && c.Probe != probe.GlobalBit {
		return c, fmt.Errorf("core: record parallelism requires the global bit probe (concurrent chunk writes)")
	}
	switch c.SubtreeInner {
	case Serial, Basic: // Serial is the zero value, treated as Basic
		c.SubtreeInner = Basic
	case MWK:
	default:
		return c, fmt.Errorf("core: SubtreeInner must be Basic or MWK, got %v", c.SubtreeInner)
	}
	switch c.Storage {
	case Memory, Disk:
	default:
		return c, fmt.Errorf("core: unknown storage %d", int(c.Storage))
	}
	if c.Trace != nil && c.Algorithm != Serial {
		return c, fmt.Errorf("core: cost tracing requires Algorithm == Serial")
	}
	if c.AttrMask != nil {
		any := false
		for _, ok := range c.AttrMask {
			if ok {
				any = true
				break
			}
		}
		if !any {
			return c, fmt.Errorf("core: AttrMask masks every attribute")
		}
	}
	if c.Retry.MaxAttempts == 0 {
		c.Retry = alist.DefaultRetry()
	}
	if c.Retry.MaxAttempts < 1 {
		return c, fmt.Errorf("core: Retry.MaxAttempts must be >= 1, got %d", c.Retry.MaxAttempts)
	}
	if c.Recorder == nil {
		c.Recorder = trace.NewRecorder(c.Procs)
	} else if c.Recorder.Workers() < c.Procs {
		return c, fmt.Errorf("core: Recorder has %d lanes, Procs is %d",
			c.Recorder.Workers(), c.Procs)
	}
	return c, nil
}

// Timings reports the phase breakdown of a build, mirroring the paper's
// setup / sort / build decomposition.
type Timings struct {
	// Setup is the attribute-list creation time.
	Setup time.Duration
	// Sort is the continuous-attribute pre-sort time.
	Sort time.Duration
	// Build is the tree-growth time.
	Build time.Duration
}

// Total returns setup + sort + build.
func (t Timings) Total() time.Duration { return t.Setup + t.Sort + t.Build }

// Package parclass is a decision-tree classifier for shared-memory
// multiprocessors, reproducing Zaki, Ho & Agrawal, "Parallel Classification
// for Data Mining on Shared-Memory Multiprocessors" (ICDE 1999).
//
// The classifier is SPRINT: pre-sorted attribute lists, gini-index split
// selection, breadth-first growth, probe-based list splitting, and optional
// MDL pruning. Tree growth can run serially or under one of the paper's
// four SMP schemes — BASIC, FWK, MWK (attribute data parallelism, the
// latter two with task pipelining) and SUBTREE (dynamic subtree task
// parallelism) — all of which produce the identical tree. Attribute lists
// may live in memory or in reusable disk files, the paper's two machine
// configurations.
//
// Quick start:
//
//	ds, _ := parclass.Synthetic(parclass.SyntheticConfig{Function: 7, Tuples: 10000})
//	train, test := ds.SplitHoldout(0.25)
//	model, _ := parclass.Train(train, parclass.Options{Algorithm: parclass.MWK, Procs: 4})
//	fmt.Printf("accuracy: %.3f\n", model.Accuracy(test))
package parclass

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"repro/internal/alist"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/flat"
	"repro/internal/probe"
	"repro/internal/prune"
	"repro/internal/sliq"
	"repro/internal/synth"
	coretrace "repro/internal/trace"
	"repro/internal/tree"
)

// Algorithm selects the tree-growth scheme.
type Algorithm int

const (
	// Serial is uniprocessor SPRINT.
	Serial Algorithm = iota
	// Basic is attribute data parallelism with a master-serial W phase.
	Basic
	// FWK pipelines probe construction with evaluation over fixed blocks
	// of K leaves.
	FWK
	// MWK uses a moving window of K leaves with per-leaf condition
	// variables; the paper's best scheme overall.
	MWK
	// Subtree assigns processor groups to disjoint subtrees dynamically.
	Subtree
	// RecordParallel is the record-data-parallel baseline the paper argues
	// against for SMPs; each worker owns 1/P of every attribute list.
	RecordParallel
	// SLIQ is the serial predecessor classifier (class list + static
	// attribute lists); it grows the identical tree through a different
	// data organization and ignores Procs and Storage.
	SLIQ
	// Hist is the approximate histogram-binned engine: continuous
	// attributes are pre-binned into at most MaxBins quantile bins, splits
	// are evaluated over per-node class×bin histograms and nodes are
	// partitioned by permuting a row-index array — no attribute lists, no
	// pre-sort, no list rewriting. Its splits land on bin boundaries
	// instead of exact record mid-points, trading a bounded accuracy delta
	// for builds that scale past the exact engines' practical row limits.
	// It requires Memory storage, the default probe and an unset WindowK.
	Hist
)

// String names the algorithm.
func (a Algorithm) String() string {
	if a == SLIQ {
		return "SLIQ"
	}
	return coreAlgorithm(a).String()
}

func coreAlgorithm(a Algorithm) core.Algorithm {
	switch a {
	case Serial:
		return core.Serial
	case Basic:
		return core.Basic
	case FWK:
		return core.FWK
	case MWK:
		return core.MWK
	case Subtree:
		return core.Subtree
	case RecordParallel:
		return core.RecPar
	case Hist:
		return core.Hist
	case SLIQ:
		// SLIQ never reaches the core engine; map it to an invalid core
		// value so a misrouted config fails validation instead of silently
		// selecting whichever core algorithm shares the integer.
		return core.Algorithm(-1)
	default:
		return core.Algorithm(int(a))
	}
}

// Storage selects where attribute lists live during the build.
type Storage int

const (
	// Memory keeps attribute lists in RAM (the paper's large-memory
	// "Machine B" configuration).
	Memory Storage = iota
	// Disk keeps attribute lists in a fixed set of reusable binary files
	// (the paper's local-disk "Machine A" configuration).
	Disk
)

// ProbeKind selects the tid→child probe design used while splitting lists.
type ProbeKind int

const (
	// GlobalBitProbe is one bit per training tuple, shared by all leaves.
	GlobalBitProbe ProbeKind = iota
	// LeafHashProbe keeps a per-leaf hash set of the smaller child's tids.
	LeafHashProbe
	// LeafRelabelProbe keeps per-leaf dense bit probes over relabeled
	// tids, rewriting tids at every split.
	LeafRelabelProbe
)

// Options configures Train. The zero value trains serially in memory with
// the paper's defaults (window K=4, global bit probe, no pruning).
type Options struct {
	// Algorithm selects the growth scheme.
	Algorithm Algorithm
	// Procs is the number of worker goroutines for parallel schemes and
	// for the setup phase (attribute-list creation and pre-sort) of every
	// scheme but Hist (default 1).
	Procs int
	// WindowK is the window size for FWK/MWK (default 4).
	WindowK int
	// Storage selects the attribute-list backend.
	Storage Storage
	// TempDir holds the Disk backend's files (default: a fresh temp dir,
	// removed afterwards).
	TempDir string
	// Probe selects the probe design.
	Probe ProbeKind
	// MinSplit stops splitting leaves with fewer tuples (default 2).
	MinSplit int
	// MaxDepth bounds tree depth when > 0.
	MaxDepth int
	// MinGiniGain requires each split to reduce gini by at least this
	// much (default 0, pure SPRINT behaviour).
	MinGiniGain float64
	// MaxBins is the Hist engine's bin budget per continuous attribute
	// (default 256, valid 2..65536). Setting it with any other algorithm
	// is rejected by Validate.
	MaxBins int
	// Prune applies MDL pruning after growth.
	Prune bool
	// PartialPrune uses SLIQ's partial-pruning option set (a child may be
	// collapsed while its sibling subtree survives); implies Prune.
	PartialPrune bool
	// Monitor, when non-nil, observes the build live: poll
	// Monitor.Snapshot from another goroutine for in-progress per-worker
	// phase totals. Each training run needs its own BuildMonitor.
	Monitor *BuildMonitor

	// Trees is the ensemble size for TrainForest (default 1). Train — the
	// single-tree path — rejects Trees > 1; forest builds with Trees > 1
	// require Algorithm Serial or Hist (whole trees are the parallel unit,
	// scheduled across Procs workers, so the intra-tree SMP schemes do not
	// apply).
	Trees int
	// SampleFrac sizes each tree's bootstrap sample as a fraction of the
	// training rows, drawn with replacement. 0 selects the classic
	// bootstrap (n rows with replacement); exactly 1 disables sampling
	// (every tree sees the full dataset in its original order — the
	// identity used to check a 1-tree forest against Train).
	SampleFrac float64
	// FeatureFrac subsamples the attributes each tree may split on:
	// ceil(FeatureFrac · attrs) attributes per tree, at least 1. 0 or 1
	// disables subsampling.
	FeatureFrac float64
	// ForestSeed derives every tree's bootstrap and feature-subsample RNG.
	// The forest is a pure function of (data, options, ForestSeed) — Procs
	// changes the schedule, never the trees.
	ForestSeed int64

	// forestTreeHook, when non-nil, runs before each member tree's build
	// with the tree index; an error (or panic) injects a per-tree failure.
	// Chaos-test seam.
	forestTreeHook func(treeIdx int) error
	// forestStoreWrap is passed to each member build's Config.StoreWrap.
	// Chaos-test seam.
	forestStoreWrap func(alist.Store) alist.Store
}

func (o Options) coreConfig() core.Config {
	cfg := core.Config{
		Algorithm:   coreAlgorithm(o.Algorithm),
		Procs:       o.Procs,
		WindowK:     o.WindowK,
		MinSplit:    int64(o.MinSplit),
		MaxDepth:    o.MaxDepth,
		MinGiniGain: o.MinGiniGain,
		MaxBins:     o.MaxBins,
		TempDir:     o.TempDir,
	}
	switch o.Storage {
	case Disk:
		cfg.Storage = core.Disk
	default:
		cfg.Storage = core.Memory
	}
	switch o.Probe {
	case LeafHashProbe:
		cfg.Probe = probe.LeafHash
	case LeafRelabelProbe:
		cfg.Probe = probe.LeafRelabel
	default:
		cfg.Probe = probe.GlobalBit
	}
	return cfg
}

// Dataset is a labeled training set.
type Dataset struct {
	tbl *dataset.Table
}

// LoadCSV reads a CSV file with a header row; the last column is the class.
// Columns whose every value parses as a number become continuous attributes,
// the rest categorical.
func LoadCSV(path string) (*Dataset, error) {
	tbl, err := dataset.InferCSVFile(path)
	if err != nil {
		return nil, err
	}
	return &Dataset{tbl: tbl}, nil
}

// SaveCSV writes the dataset as CSV with a header row.
func (d *Dataset) SaveCSV(path string) error { return d.tbl.WriteCSVFile(path) }

// SyntheticConfig parameterizes the Agrawal–Imielinski–Swami synthetic data
// generator used throughout the paper's evaluation.
type SyntheticConfig struct {
	// Function is the classification function, 1..10 (the paper evaluates
	// 1, simple, and 7, complex). Default 1.
	Function int
	// Tuples is the number of training examples.
	Tuples int
	// Attrs is the total attribute count (>= 9; default 9). Widths beyond
	// the nine canonical attributes are uniform noise columns.
	Attrs int
	// Seed makes generation deterministic.
	Seed int64
	// Perturbation jitters continuous values after labeling (default 0;
	// the paper-style datasets use 0.05).
	Perturbation float64
	// LabelNoise flips each label with this probability.
	LabelNoise float64
	// Classes selects a multi-way labeling (default 2): Function 1
	// supports 3 (its natural age bands); functions 7–10 support 2..26 by
	// banding the disposable-income score.
	Classes int
}

// Synthetic generates a labeled dataset.
func Synthetic(cfg SyntheticConfig) (*Dataset, error) {
	if cfg.Function == 0 {
		cfg.Function = 1
	}
	tbl, err := synth.Generate(synth.Config{
		Function:     cfg.Function,
		Tuples:       cfg.Tuples,
		Attrs:        cfg.Attrs,
		Seed:         cfg.Seed,
		Perturbation: cfg.Perturbation,
		LabelNoise:   cfg.LabelNoise,
		Classes:      cfg.Classes,
	})
	if err != nil {
		return nil, err
	}
	return &Dataset{tbl: tbl}, nil
}

// NumRows returns the number of tuples.
func (d *Dataset) NumRows() int { return d.tbl.NumTuples() }

// NumAttrs returns the number of non-class attributes.
func (d *Dataset) NumAttrs() int { return d.tbl.Schema().NumAttrs() }

// AttrNames lists the attribute names in column order.
func (d *Dataset) AttrNames() []string {
	s := d.tbl.Schema()
	names := make([]string, len(s.Attrs))
	for i := range s.Attrs {
		names[i] = s.Attrs[i].Name
	}
	return names
}

// ClassNames lists the class label names.
func (d *Dataset) ClassNames() []string {
	return append([]string(nil), d.tbl.Schema().Classes...)
}

// ClassDistribution returns the tuple count per class name.
func (d *Dataset) ClassDistribution() map[string]int {
	h := d.tbl.ClassHistogram()
	out := make(map[string]int, len(h))
	for i, c := range h {
		out[d.tbl.Schema().Classes[i]] = c
	}
	return out
}

// Shuffle returns a row-permuted copy of the dataset, deterministic in the
// seed; use before SplitHoldout when row order carries structure.
func (d *Dataset) Shuffle(seed int64) *Dataset {
	idx := rand.New(rand.NewSource(seed)).Perm(d.tbl.NumTuples())
	return &Dataset{tbl: d.tbl.Subset(idx)}
}

// SplitHoldout splits off the last fraction of rows as a test set.
func (d *Dataset) SplitHoldout(testFrac float64) (train, test *Dataset) {
	tr, te := d.tbl.SplitHoldout(testFrac)
	return &Dataset{tbl: tr}, &Dataset{tbl: te}
}

// Table exposes the underlying columnar table to in-module tooling (cmd/,
// benchmarks). It is not part of the stable API.
func (d *Dataset) Table() *dataset.Table { return d.tbl }

// DatasetFromTable wraps a columnar table as a Dataset, for in-module
// tooling that assembles tables directly (the ingest window's retrain
// snapshots). It is not part of the stable API.
func DatasetFromTable(tbl *dataset.Table) *Dataset { return &Dataset{tbl: tbl} }

// Timings is the phase breakdown of a build, mirroring the paper's
// setup/sort/build decomposition.
type Timings struct {
	Setup, Sort, Build time.Duration
}

// Total returns setup + sort + build.
func (t Timings) Total() time.Duration { return t.Setup + t.Sort + t.Build }

// TreeStats summarizes a trained tree; Levels and MaxLeavesPerLevel are the
// paper's "tree size" columns.
type TreeStats struct {
	Nodes             int
	Leaves            int
	Levels            int
	MaxLeavesPerLevel int
}

// Model is a trained decision-tree classifier. A Model is immutable once
// returned by Train or LoadModel and safe for concurrent use by multiple
// goroutines.
type Model struct {
	tree    *tree.Tree
	timings Timings
	pruned  int
	// dec converts rows into schema tuples (shared logic with Forest).
	dec rowDecoder
	// compiled is the flat-array predictor, built lazily by Compile.
	compileOnce sync.Once
	compiled    *flat.Tree
	compileErr  error
	// buildTrace is the build observability record; nil for SLIQ models
	// and models read back from disk.
	buildTrace *BuildTrace
	// valsPool recycles PredictValues' decode buffers.
	valsPool sync.Pool
}

// newModel wraps a tree, precomputing the categorical decode index.
func newModel(tr *tree.Tree) *Model {
	return &Model{tree: tr, dec: newRowDecoder(tr.Schema)}
}

// Train grows (and optionally prunes) a decision tree over the dataset.
func Train(ds *Dataset, opt Options) (*Model, error) {
	return TrainContext(context.Background(), ds, opt)
}

// TrainContext is Train with cancellation: workers observe ctx at work-unit
// granularity and the error is ctx.Err() when cancelled. Invalid option
// combinations are rejected up front with an error wrapping ErrBadOption.
func TrainContext(ctx context.Context, ds *Dataset, opt Options) (*Model, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if opt.Trees > 1 || opt.SampleFrac != 0 || opt.FeatureFrac != 0 || opt.ForestSeed != 0 {
		return nil, fmt.Errorf("%w: forest options (Trees, SampleFrac, FeatureFrac, ForestSeed) are set; use TrainForest", ErrBadOption)
	}
	var (
		tr  *tree.Tree
		tm  core.Timings
		bt  *BuildTrace
		err error
	)
	if opt.Algorithm == SLIQ {
		tr, err = sliq.Build(ds.tbl, sliq.Config{
			MinSplit: int64(opt.MinSplit),
			MaxDepth: opt.MaxDepth,
		})
	} else {
		cfg := opt.coreConfig()
		cfg.Context = ctx
		procs := opt.Procs
		if procs < 1 {
			procs = 1
		}
		rec := coretrace.NewRecorder(procs)
		cfg.Recorder = rec
		if opt.Monitor != nil {
			opt.Monitor.begin(opt.Algorithm, procs, rec)
		}
		tr, tm, err = core.Build(ds.tbl, cfg)
		if err == nil {
			bt = buildTraceFrom(opt.Algorithm, procs, tm.Build, rec.Snapshot())
		}
		if opt.Monitor != nil {
			opt.Monitor.finish(bt, err)
		}
	}
	if err != nil {
		return nil, err
	}
	m := newModel(tr)
	m.timings = Timings{Setup: tm.Setup, Sort: tm.Sort, Build: tm.Build}
	m.buildTrace = bt
	if opt.PartialPrune {
		res := prune.MDLPartial(tr)
		m.pruned = res.Pruned
	} else if opt.Prune {
		res := prune.MDL(tr)
		m.pruned = res.Pruned
	}
	return m, nil
}

// Timings returns the build's phase breakdown.
func (m *Model) Timings() Timings { return m.timings }

// BuildTrace returns the build-phase observability record: per worker and
// per tree level, the time spent in the paper's E/W/S phases plus barrier
// and idle waits, with skew and parallel-efficiency accessors. It is nil
// for SLIQ models and models loaded from disk.
func (m *Model) BuildTrace() *BuildTrace { return m.buildTrace }

// PrunedSubtrees reports how many subtrees MDL pruning collapsed (0 when
// pruning was disabled).
func (m *Model) PrunedSubtrees() int { return m.pruned }

// Stats returns structural statistics of the tree.
func (m *Model) Stats() TreeStats {
	s := m.tree.Stats()
	return TreeStats{
		Nodes:             s.Nodes,
		Leaves:            s.Leaves,
		Levels:            s.Levels,
		MaxLeavesPerLevel: s.MaxLeavesPerLevel,
	}
}

// Accuracy returns the fraction of ds classified correctly.
func (m *Model) Accuracy(ds *Dataset) float64 { return m.tree.Accuracy(ds.tbl) }

// decodeRow converts a name→string row into a schema tuple.
func (m *Model) decodeRow(row map[string]string) (dataset.Tuple, error) {
	return m.dec.decodeRow(row)
}

// Predict classifies a single example given as attribute-name → value
// strings (continuous values in any strconv.ParseFloat form, categorical
// values by category name). Missing attributes are an error.
func (m *Model) Predict(row map[string]string) (string, error) {
	tu, err := m.decodeRow(row)
	if err != nil {
		return "", err
	}
	return m.tree.Schema.Classes[m.tree.Predict(tu)], nil
}

// Compile builds (once, lazily) the flat-array predictor that backs
// PredictBatch: the tree linearized into a preorder node array with
// bitmask categorical tests, trading a one-time compile for pointer-free
// tree walks. Calling it eagerly after Train or LoadModel moves that cost
// off the first request; PredictBatch compiles on demand otherwise. Safe
// for concurrent use.
func (m *Model) Compile() error {
	m.compileOnce.Do(func() {
		m.compiled, m.compileErr = flat.Compile(m.tree)
		if m.compileErr != nil {
			m.compileErr = fmt.Errorf("%w: %v", ErrNotCompiled, m.compileErr)
		}
	})
	return m.compileErr
}

// valsBuf is PredictValues' reusable decode buffer.
type valsBuf struct {
	cont []float64
	cat  []int32
}

// PredictValues classifies a single example given positionally: one string
// per schema attribute, in Dataset.AttrNames order. It skips Predict's map
// lookups and per-call allocations (buffers come from a pool), making it
// the fast path for high-throughput callers that send rows in a fixed
// column order. Wrong-width rows fail with ErrUnknownAttribute, undecodable
// values with ErrUnknownValue.
func (m *Model) PredictValues(vals []string) (string, error) {
	if err := m.Compile(); err != nil {
		return "", err
	}
	s := m.tree.Schema
	if len(vals) != len(s.Attrs) {
		return "", fmt.Errorf("%w: got %d values, schema has %d attributes",
			ErrUnknownAttribute, len(vals), len(s.Attrs))
	}
	b, _ := m.valsPool.Get().(*valsBuf)
	if b == nil {
		b = &valsBuf{
			cont: make([]float64, len(s.Attrs)),
			cat:  make([]int32, len(s.Attrs)),
		}
	}
	tu := dataset.Tuple{Cont: b.cont, Cat: b.cat}
	for a, raw := range vals {
		if err := m.dec.decodeValue(a, raw, tu); err != nil {
			m.valsPool.Put(b)
			return "", err
		}
	}
	code := m.compiled.Predict(tu)
	m.valsPool.Put(b)
	return s.Classes[code], nil
}

// PredictValuesBatch classifies many positional rows at once: the batch
// form of PredictValues, and the fast path for bulk positional traffic
// (the server's "values_rows" request form and its micro-batcher dispatch
// both land here). Decode and the compiled flat-tree walk fan out over
// contiguous row shards exactly like PredictBatch, with one backing array
// per column kind instead of per-row buffers. It returns one predicted
// class name per row, in order; a malformed row fails the whole batch with
// an error naming the row index ("row %d: ...") and wrapping the same
// sentinel PredictValues would return for that row alone.
func (m *Model) PredictValuesBatch(rows [][]string) ([]string, error) {
	if err := m.Compile(); err != nil {
		return nil, err
	}
	return predictBatch(m.tree.Schema, len(rows), batchShardMin, m.dec.positionalRows(rows), m.classify)
}

// PredictBatch classifies many examples at once, fanning decode + compiled
// tree walks out over contiguous row shards (one goroutine per GOMAXPROCS
// processor for large batches). It returns one predicted class name per
// row, in order; a malformed row fails the whole batch with an error naming
// the row index.
func (m *Model) PredictBatch(rows []map[string]string) ([]string, error) {
	if err := m.Compile(); err != nil {
		return nil, err
	}
	return predictBatch(m.tree.Schema, len(rows), batchShardMin, m.dec.namedRows(rows), m.classify)
}

// classify is predictBatch's per-row step: one compiled tree walk.
func (m *Model) classify(tu dataset.Tuple, _ []int32) int32 { return m.compiled.Predict(tu) }

// String renders the tree as an indented outline.
func (m *Model) String() string { return m.tree.String() }

// Rules returns one human-readable rule per leaf.
func (m *Model) Rules() []string {
	rules := m.tree.Rules()
	out := make([]string, len(rules))
	for i, r := range rules {
		cond := "true"
		if len(r.Conditions) > 0 {
			cond = strings.Join(r.Conditions, " AND ")
		}
		out[i] = fmt.Sprintf("IF %s THEN class=%s (n=%d, err=%d)", cond, r.Class, r.N, r.Errors)
	}
	return out
}

// SQL renders the tree as a SQL CASE expression.
func (m *Model) SQL() string { return m.tree.SQL() }

// AttrImportance lists attributes by how many tree nodes split on them.
func (m *Model) AttrImportance() []string {
	usage := m.tree.AttrUsage()
	out := make([]string, len(usage))
	for i, u := range usage {
		out[i] = fmt.Sprintf("%s (%d splits)", u.Name, u.Count)
	}
	return out
}

// Tree exposes the underlying tree to in-module tooling. It is not part of
// the stable API.
func (m *Model) Tree() *tree.Tree { return m.tree }

// Schema exposes the model's schema to in-module tooling. It is not part
// of the stable API.
func (m *Model) Schema() *dataset.Schema { return m.tree.Schema }

// NumTrees reports the ensemble size; a Model is always one tree.
func (m *Model) NumTrees() int { return 1 }

package parclass

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync"

	"repro/internal/dataset"
	"repro/internal/flat"
	"repro/internal/tree"
)

// Predictor is a trained classifier ready to serve: the interface both
// *Model (one tree) and *Forest (a bagged ensemble) satisfy. Both run the
// same predict implementation — a Model is scored as a one-member
// ensemble — so the serving layer, the CLIs and the model registry can
// operate on Predictor, and a hot swap can replace a single tree with a
// 100-tree forest (or back) without the caller caring which shape is
// loaded.
type Predictor interface {
	// Predict classifies one example given as attribute-name → value
	// strings.
	Predict(row map[string]string) (string, error)
	// PredictValues classifies one positional row (one string per schema
	// attribute, in Dataset.AttrNames order) — the fast single-row path.
	PredictValues(vals []string) (string, error)
	// PredictBatch classifies many named rows at once.
	PredictBatch(rows []map[string]string) ([]string, error)
	// PredictValuesBatch classifies many positional rows at once — the
	// bulk fast path the server's "values_rows" form calls.
	PredictValuesBatch(rows [][]string) ([]string, error)
	// PredictDataset classifies every row of ds in order.
	PredictDataset(ds *Dataset) []string
	// Accuracy returns the fraction of ds classified correctly.
	Accuracy(ds *Dataset) float64
	// Compile builds the flat-array predictor every predict path runs on,
	// eagerly (idempotent); the predict paths compile on demand otherwise.
	Compile() error
	// Stats returns structural statistics (summed over trees for forests).
	Stats() TreeStats
	// NumTrees reports the ensemble size: 1 for a Model.
	NumTrees() int
	// Schema exposes the classifier's schema to in-module tooling. It is
	// not part of the stable API.
	Schema() *dataset.Schema
	// WriteModel serializes the classifier as versioned JSON: the v1
	// single-tree envelope for a Model, the v2 multi-tree envelope for a
	// Forest. ReadModel round-trips both.
	WriteModel(w io.Writer) error
	// SaveModel writes the classifier to the named file.
	SaveModel(path string) error
}

// Statically assert both shapes satisfy the interface.
var (
	_ Predictor = (*Model)(nil)
	_ Predictor = (*Forest)(nil)
)

// ProbaPredictor is the optional vote-distribution interface: forests
// report per-class vote fractions alongside the majority class. Single
// trees do not implement it (a leaf's class distribution is available via
// Model.PredictProb but is not a vote).
type ProbaPredictor interface {
	Predictor
	// PredictProba classifies one named row, also returning the fraction
	// of trees voting for each class.
	PredictProba(row map[string]string) (string, map[string]float64, error)
	// PredictValuesProba is PredictProba for one positional row.
	PredictValuesProba(vals []string) (string, map[string]float64, error)
}

var _ ProbaPredictor = (*Forest)(nil)

// scorer is the one predict implementation behind both Predictor shapes;
// Model and Forest embed it. It holds the member trees (one for a Model,
// so a single tree is a one-root vote), their shared schema and row
// decoder, the fused flat pool compiled from the members on first use, and
// a pool of single-row decode and vote scratch.
type scorer struct {
	schema *dataset.Schema
	dec    rowDecoder
	trees  []*tree.Tree

	compileOnce sync.Once
	compiled    *flat.Forest
	compileErr  error
	// bufs recycles the single-row forms' scratch (*rowBuf).
	bufs sync.Pool
}

// rowBuf is one single-row call's decode and vote scratch.
type rowBuf struct {
	tu    dataset.Tuple
	votes []int32
}

// init points s at its members, which share one schema. Compilation stays
// lazy: Train prunes the tree after wrapping it.
func (s *scorer) init(trees []*tree.Tree) {
	s.trees = trees
	s.schema = trees[0].Schema
	s.dec = newRowDecoder(s.schema)
}

// Compile builds (once, lazily) the flat predictor every predict path runs
// on: the member trees linearized into one contiguous preorder node pool
// with bitmask categorical tests, voted row-major. Calling it eagerly after
// training or loading moves that cost off the first request. Safe for
// concurrent use.
func (s *scorer) Compile() error {
	s.compileOnce.Do(func() {
		s.compiled, s.compileErr = flat.CompileForest(s.trees)
		if s.compileErr != nil {
			s.compileErr = fmt.Errorf("%w: %v", ErrNotCompiled, s.compileErr)
		}
	})
	return s.compileErr
}

// NumTrees reports the ensemble size: 1 for a Model.
func (s *scorer) NumTrees() int { return len(s.trees) }

// Schema exposes the classifier's schema to in-module tooling. It is not
// part of the stable API.
func (s *scorer) Schema() *dataset.Schema { return s.schema }

// Stats sums structural statistics over the members; Levels and
// MaxLeavesPerLevel are maxima.
func (s *scorer) Stats() TreeStats {
	var out TreeStats
	for _, tr := range s.trees {
		st := tr.Stats()
		out.Nodes += st.Nodes
		out.Leaves += st.Leaves
		out.Levels = max(out.Levels, st.Levels)
		out.MaxLeavesPerLevel = max(out.MaxLeavesPerLevel, st.MaxLeavesPerLevel)
	}
	return out
}

// Predict classifies a single example given as attribute-name → value
// strings (continuous values in any strconv.ParseFloat form, categorical
// values by category name). Missing attributes fail with
// ErrUnknownAttribute, undecodable values with ErrUnknownValue.
func (s *scorer) Predict(row map[string]string) (string, error) {
	cls, _, err := s.predictOne(func(tu dataset.Tuple) error { return s.dec.named(row, tu) }, false)
	return cls, err
}

// PredictValues classifies a single example given positionally: one string
// per schema attribute, in Dataset.AttrNames order. It skips Predict's map
// lookups and allocates nothing (its scratch comes from a pool), making it
// the fast path for high-throughput callers that send rows in a fixed
// column order. Wrong-width rows fail with ErrUnknownAttribute,
// undecodable values with ErrUnknownValue.
func (s *scorer) PredictValues(vals []string) (string, error) {
	cls, _, err := s.predictOne(func(tu dataset.Tuple) error { return s.dec.values(vals, tu) }, false)
	return cls, err
}

// predictOne is the single-row core: compile on demand, decode one row into
// pooled scratch, vote it, and — when wantProba — convert the vote
// histogram into per-class fractions of the ensemble.
func (s *scorer) predictOne(decode func(tu dataset.Tuple) error, wantProba bool) (string, map[string]float64, error) {
	if err := s.Compile(); err != nil {
		return "", nil, err
	}
	b, _ := s.bufs.Get().(*rowBuf)
	if b == nil {
		n := len(s.schema.Attrs)
		b = &rowBuf{
			tu:    dataset.Tuple{Cont: make([]float64, n), Cat: make([]int32, n)},
			votes: make([]int32, len(s.schema.Classes)),
		}
	}
	defer s.bufs.Put(b)
	if err := decode(b.tu); err != nil {
		return "", nil, err
	}
	clear(b.votes)
	cls := s.schema.Classes[s.compiled.Vote(b.tu, b.votes)]
	if !wantProba {
		return cls, nil, nil
	}
	proba := make(map[string]float64, len(s.schema.Classes))
	for j, name := range s.schema.Classes {
		proba[name] = float64(b.votes[j]) / float64(len(s.trees))
	}
	return cls, proba, nil
}

// PredictBatch classifies many named rows at once, sharded like
// PredictValuesBatch.
func (s *scorer) PredictBatch(rows []map[string]string) ([]string, error) {
	return s.predictBatch(len(rows), func(i int, tu dataset.Tuple) error { return s.dec.named(rows[i], tu) })
}

// PredictValuesBatch classifies many positional rows at once: the batch
// form of PredictValues, and the fast path for bulk positional traffic
// (the server's "values_rows" request form lands here). Decode and the fused row-major vote fan out over
// contiguous row shards, with one backing array per column kind instead of
// per-row buffers, so an N-tree forest costs one decode per row, not N. It
// returns one predicted class name per row, in order; a malformed row fails
// the whole batch with an error naming the row index ("row %d: ...") and
// wrapping the same sentinel PredictValues would return for that row alone.
func (s *scorer) PredictValuesBatch(rows [][]string) ([]string, error) {
	return s.predictBatch(len(rows), func(i int, tu dataset.Tuple) error { return s.dec.values(rows[i], tu) })
}

// batchShardMin is the smallest shard of single-tree walks worth its own
// goroutine. A row costs one walk per member, so the row floor is
// batchShardMin/NumTrees (at least 1); smaller batches run as one shard.
const batchShardMin = 64

// predictBatch is the one sharded decode→vote loop behind both batch forms.
// decode(i, tu) fills row i's tuple — a window of one contiguous buffer per
// column kind, amortizing the per-row slice allocations. Rows are split
// into contiguous shards, one goroutine each up to GOMAXPROCS. A malformed
// row fails the whole batch; when several shards fail, the lowest row's
// error is returned.
func (s *scorer) predictBatch(n int, decode func(i int, tu dataset.Tuple) error) ([]string, error) {
	if err := s.Compile(); err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	nAttrs := len(s.schema.Attrs)
	contBuf := make([]float64, n*nAttrs)
	catBuf := make([]int32, n*nAttrs)
	codes := make([]int32, n)

	shardMin := max(1, batchShardMin/len(s.trees))
	procs := max(1, min(runtime.GOMAXPROCS(0), n/shardMin))
	errs := make([]error, procs)
	var wg sync.WaitGroup
	for w := 0; w < procs; w++ {
		lo, hi := w*n/procs, (w+1)*n/procs
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			votes := make([]int32, len(s.schema.Classes))
			for i := lo; i < hi; i++ {
				tu := dataset.Tuple{
					Cont: contBuf[i*nAttrs : (i+1)*nAttrs],
					Cat:  catBuf[i*nAttrs : (i+1)*nAttrs],
				}
				if err := decode(i, tu); err != nil {
					errs[w] = fmt.Errorf("row %d: %w", i, err)
					return
				}
				clear(votes)
				codes[i] = s.compiled.Vote(tu, votes)
			}
		}(w, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return s.names(codes), nil
}

// PredictDataset classifies every row of ds (ignoring its labels) and
// returns the predicted class names in row order. Rows are already decoded
// columnar data, so this takes the compiled batch vote directly.
func (s *scorer) PredictDataset(ds *Dataset) []string { return s.names(s.datasetCodes(ds)) }

// Accuracy returns the fraction of ds classified correctly.
func (s *scorer) Accuracy(ds *Dataset) float64 {
	n := ds.NumRows()
	if n == 0 {
		return 0
	}
	hits := 0
	for i, c := range s.datasetCodes(ds) {
		if c == ds.tbl.Class(i) {
			hits++
		}
	}
	return float64(hits) / float64(n)
}

// datasetCodes votes every row of ds through the compiled pool. These forms
// have no error return: Compile fails only on a malformed tree, which
// Train, TrainForest and ReadModel never produce (FuzzReadModel holds
// ReadModel to that), so a failure here is a broken invariant.
func (s *scorer) datasetCodes(ds *Dataset) []int32 {
	if err := s.Compile(); err != nil {
		panic(err)
	}
	tus := make([]dataset.Tuple, ds.NumRows())
	for i := range tus {
		tus[i] = ds.tbl.Row(i)
	}
	return s.compiled.PredictBatch(tus, runtime.GOMAXPROCS(0))
}

// names maps class codes to class names.
func (s *scorer) names(codes []int32) []string {
	out := make([]string, len(codes))
	for i, c := range codes {
		out[i] = s.schema.Classes[c]
	}
	return out
}

// rowDecoder converts name→string and positional string rows into schema
// tuples, resolving categorical values through a precomputed name→code
// index. Its two decode steps, named and values, serve the single-row and
// batch forms alike.
type rowDecoder struct {
	schema *dataset.Schema
	// catCodes[a] maps category name → code for categorical attribute a
	// (nil for continuous), built once so row decoding is a map lookup
	// instead of a linear scan over attr.Categories.
	catCodes []map[string]int32
}

// newRowDecoder precomputes the categorical decode index for s.
func newRowDecoder(s *dataset.Schema) rowDecoder {
	d := rowDecoder{schema: s, catCodes: make([]map[string]int32, len(s.Attrs))}
	for a := range s.Attrs {
		attr := &s.Attrs[a]
		if attr.Kind != dataset.Categorical {
			continue
		}
		codes := make(map[string]int32, len(attr.Categories))
		for c, name := range attr.Categories {
			codes[name] = int32(c)
		}
		d.catCodes[a] = codes
	}
	return d
}

// named decodes a name→string row into the caller-provided tuple buffers.
func (d *rowDecoder) named(row map[string]string, tu dataset.Tuple) error {
	for a := range d.schema.Attrs {
		name := d.schema.Attrs[a].Name
		raw, ok := row[name]
		if !ok {
			return fmt.Errorf("%w: missing attribute %q", ErrUnknownAttribute, name)
		}
		if err := d.decodeValue(a, raw, tu); err != nil {
			return err
		}
	}
	return nil
}

// values decodes a positional row — one string per schema attribute, in
// order — into the caller-provided tuple buffers.
func (d *rowDecoder) values(vals []string, tu dataset.Tuple) error {
	if len(vals) != len(d.schema.Attrs) {
		return fmt.Errorf("%w: got %d values, schema has %d attributes",
			ErrUnknownAttribute, len(vals), len(d.schema.Attrs))
	}
	for a, raw := range vals {
		if err := d.decodeValue(a, raw, tu); err != nil {
			return err
		}
	}
	return nil
}

// decodeValue decodes one attribute's string value into the tuple.
func (d *rowDecoder) decodeValue(a int, raw string, tu dataset.Tuple) error {
	attr := &d.schema.Attrs[a]
	if attr.Kind == dataset.Continuous {
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			// Slow path: tolerate surrounding whitespace.
			if v, err = strconv.ParseFloat(strings.TrimSpace(raw), 64); err != nil {
				return fmt.Errorf("%w: attribute %q: %v", ErrUnknownValue, attr.Name, err)
			}
		}
		// NaN compares false against every threshold, so the walk would
		// send it right at each node; ±Inf are ordered and route like
		// extreme values.
		if math.IsNaN(v) {
			return fmt.Errorf("%w: attribute %q: NaN is not a value", ErrUnknownValue, attr.Name)
		}
		tu.Cont[a] = v
		return nil
	}
	code, ok := d.catCodes[a][raw]
	if !ok {
		return fmt.Errorf("%w: attribute %q: unknown category %q", ErrUnknownValue, attr.Name, raw)
	}
	tu.Cat[a] = code
	return nil
}

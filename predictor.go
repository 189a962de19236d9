package parclass

import (
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"
	"sync"

	"repro/internal/dataset"
)

// Predictor is a trained classifier ready to serve: the interface both
// *Model (one tree) and *Forest (a bagged ensemble) satisfy. The serving
// layer, the CLIs and the model registry operate on Predictor, so a hot
// swap can replace a single tree with a 100-tree forest (or back) without
// the caller caring which shape is loaded.
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
	// bulk fast path the server's micro-batcher dispatches into.
	PredictValuesBatch(rows [][]string) ([]string, error)
	// PredictDataset classifies every row of ds in order.
	PredictDataset(ds *Dataset) []string
	// Accuracy returns the fraction of ds classified correctly.
	Accuracy(ds *Dataset) float64
	// Compile builds the flat-array predictor eagerly (idempotent); the
	// predict paths compile on demand otherwise.
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

// rowDecoder converts name→string and positional string rows into schema
// tuples, resolving categorical values through a precomputed name→code
// index. Model and Forest share it, so both decode identically.
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

// decodeRow converts a name→string row into a freshly allocated tuple.
func (d *rowDecoder) decodeRow(row map[string]string) (dataset.Tuple, error) {
	s := d.schema
	tu := dataset.Tuple{
		Cont: make([]float64, len(s.Attrs)),
		Cat:  make([]int32, len(s.Attrs)),
	}
	return tu, d.decodeRowInto(row, tu)
}

// decodeRowInto decodes row into the caller-provided tuple buffers.
func (d *rowDecoder) decodeRowInto(row map[string]string, tu dataset.Tuple) error {
	s := d.schema
	for a := range s.Attrs {
		attr := &s.Attrs[a]
		raw, ok := row[attr.Name]
		if !ok {
			return fmt.Errorf("%w: missing attribute %q", ErrUnknownAttribute, attr.Name)
		}
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

// positionalRows returns the batch decode step for positional rows: row i
// must carry one string per schema attribute, in order. Errors name the row
// ("row %d: ...") and wrap the sentinel the single-row form would return.
func (d *rowDecoder) positionalRows(rows [][]string) func(i int, tu dataset.Tuple) error {
	nAttrs := len(d.schema.Attrs)
	return func(i int, tu dataset.Tuple) error {
		vals := rows[i]
		if len(vals) != nAttrs {
			return fmt.Errorf("row %d: %w: got %d values, schema has %d attributes",
				i, ErrUnknownAttribute, len(vals), nAttrs)
		}
		for a, raw := range vals {
			if err := d.decodeValue(a, raw, tu); err != nil {
				return fmt.Errorf("row %d: %w", i, err)
			}
		}
		return nil
	}
}

// namedRows is positionalRows for name→string rows.
func (d *rowDecoder) namedRows(rows []map[string]string) func(i int, tu dataset.Tuple) error {
	return func(i int, tu dataset.Tuple) error {
		if err := d.decodeRowInto(rows[i], tu); err != nil {
			return fmt.Errorf("row %d: %w", i, err)
		}
		return nil
	}
}

// batchShardMin is the smallest shard of a single-tree batch worth its own
// goroutine; smaller batches run as one shard.
const batchShardMin = 64

// predictBatch is the one sharded decode→classify loop behind every batch
// form of Model and Forest. decode(i, tu) fills row i's tuple — a window of
// one contiguous buffer per column kind, amortizing the per-row slice
// allocations the single-row forms pay — and classify(tu, votes) returns its
// class code, with votes a per-shard scratch of one counter per class (the
// forest's vote histogram; a single tree ignores it). Rows are split into
// contiguous shards of at least shardMin, one goroutine each up to
// GOMAXPROCS. A malformed row fails the whole batch; when several shards
// fail, the lowest row's error is returned.
func predictBatch(s *dataset.Schema, n, shardMin int,
	decode func(i int, tu dataset.Tuple) error,
	classify func(tu dataset.Tuple, votes []int32) int32) ([]string, error) {
	if n == 0 {
		return nil, nil
	}
	nAttrs := len(s.Attrs)
	contBuf := make([]float64, n*nAttrs)
	catBuf := make([]int32, n*nAttrs)
	codes := make([]int32, n)

	procs := max(1, min(runtime.GOMAXPROCS(0), n/shardMin))
	errs := make([]error, procs)
	var wg sync.WaitGroup
	for w := 0; w < procs; w++ {
		lo, hi := w*n/procs, (w+1)*n/procs
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			votes := make([]int32, len(s.Classes))
			for i := lo; i < hi; i++ {
				tu := dataset.Tuple{
					Cont: contBuf[i*nAttrs : (i+1)*nAttrs],
					Cat:  catBuf[i*nAttrs : (i+1)*nAttrs],
				}
				if err := decode(i, tu); err != nil {
					errs[w] = err
					return
				}
				codes[i] = classify(tu, votes)
			}
		}(w, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	out := make([]string, n)
	for i, c := range codes {
		out[i] = s.Classes[c]
	}
	return out, nil
}

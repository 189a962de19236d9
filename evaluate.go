package parclass

import (
	"context"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/tree"
)

// SaveModel writes the trained model to path as versioned JSON, including
// the schema, so it can be loaded and used for prediction without the
// training data.
func (m *Model) SaveModel(path string) error {
	return m.tree.WriteFile(path)
}

// WriteModel serializes the model as versioned JSON to w — the streaming
// form of SaveModel, used by the model server's hot-swap endpoint.
func (m *Model) WriteModel(w io.Writer) error {
	return m.tree.Write(w)
}

// LoadModel reads a classifier previously written with SaveModel — either
// shape: a v1 file yields a *Model, a v2 forest file a *Forest.
func LoadModel(path string) (Predictor, error) {
	f, err := tree.ReadAnyFile(path)
	if err != nil {
		return nil, err
	}
	return predictorFromFile(f)
}

// ReadModel deserializes a classifier from r — the streaming form of
// LoadModel. It accepts both the v1 single-tree envelope and the v2
// multi-tree envelope.
func ReadModel(r io.Reader) (Predictor, error) {
	f, err := tree.ReadAny(r)
	if err != nil {
		return nil, err
	}
	return predictorFromFile(f)
}

// predictorFromFile wraps a decoded model file in the matching shape.
func predictorFromFile(f *tree.File) (Predictor, error) {
	if len(f.Trees) == 1 && f.Forest == nil {
		return newModel(f.Trees[0]), nil
	}
	meta := f.Forest
	if meta == nil {
		meta = &tree.ForestMeta{}
	}
	return newForest(f.Trees, meta.SampleFrac, meta.FeatureFrac, meta.Seed), nil
}

// Metrics summarizes a model's performance on a dataset.
type Metrics struct {
	// Accuracy is the fraction classified correctly.
	Accuracy float64
	// Classes lists the class names, indexing ConfusionMatrix and PerClass.
	Classes []string
	// ConfusionMatrix is indexed [actual][predicted].
	ConfusionMatrix [][]int64
	// PerClass holds one-vs-rest precision/recall/F1 per class.
	PerClass []ClassMetrics
	// Pretty is a ready-to-print rendering.
	Pretty string
}

// ClassMetrics holds one class's one-vs-rest measures.
type ClassMetrics struct {
	Class     string
	Support   int64
	Precision float64
	Recall    float64
	F1        float64
}

// Evaluate computes the confusion matrix and per-class metrics of the
// model on ds.
func (m *Model) Evaluate(ds *Dataset) Metrics {
	cm := eval.Confuse(m.tree, ds.tbl)
	out := Metrics{
		Accuracy:        cm.Accuracy(),
		Classes:         cm.Classes,
		ConfusionMatrix: cm.Counts,
		Pretty:          cm.String(),
	}
	for _, pc := range cm.PerClass() {
		out.PerClass = append(out.PerClass, ClassMetrics{
			Class: pc.Class, Support: pc.Support,
			Precision: pc.Precision, Recall: pc.Recall, F1: pc.F1,
		})
	}
	return out
}

// CVResult summarizes a cross-validation run.
type CVResult struct {
	FoldAccuracy []float64
	Mean         float64
	StdDev       float64
}

// CrossValidate runs k-fold cross-validation of the given training options
// over ds, with deterministic fold assignment from seed.
func CrossValidate(ds *Dataset, k int, seed int64, opt Options) (CVResult, error) {
	return CrossValidateContext(context.Background(), ds, k, seed, opt)
}

// CrossValidateContext is CrossValidate with cancellation.
func CrossValidateContext(ctx context.Context, ds *Dataset, k int, seed int64, opt Options) (CVResult, error) {
	res, err := eval.CrossValidate(ds.tbl, k, seed, func(train *dataset.Table) (*tree.Tree, error) {
		cfg := opt.coreConfig()
		cfg.Context = ctx
		tr, _, err := core.Build(train, cfg)
		return tr, err
	})
	if err != nil {
		return CVResult{}, fmt.Errorf("parclass: %w", err)
	}
	return CVResult{FoldAccuracy: res.FoldAccuracy, Mean: res.Mean, StdDev: res.StdDev}, nil
}

// PredictProb returns the class-probability estimate for one example: the
// training class distribution of the leaf the example lands in.
func (m *Model) PredictProb(row map[string]string) (map[string]float64, error) {
	n := len(m.schema.Attrs)
	tu := dataset.Tuple{Cont: make([]float64, n), Cat: make([]int32, n)}
	if err := m.dec.named(row, tu); err != nil {
		return nil, err
	}
	leaf := m.tree.Leaf(tu)
	out := make(map[string]float64, len(m.schema.Classes))
	for j, name := range m.schema.Classes {
		if leaf.N > 0 {
			out[name] = float64(leaf.ClassCounts[j]) / float64(leaf.N)
		} else {
			out[name] = 0
		}
	}
	return out, nil
}

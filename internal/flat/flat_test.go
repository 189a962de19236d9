package flat

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/split"
	"repro/internal/synth"
	"repro/internal/tree"
)

// grow builds a pointer tree over fn's synthetic data.
func grow(t *testing.T, fn, tuples, maxDepth int) (*tree.Tree, *dataset.Table) {
	t.Helper()
	tbl, err := synth.Generate(synth.Config{
		Function: fn, Tuples: tuples, Seed: 7, Perturbation: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, _, err := core.Build(tbl, core.Config{MaxDepth: maxDepth})
	if err != nil {
		t.Fatal(err)
	}
	return tr, tbl
}

// randomTuple draws a tuple over the schema's domains: continuous values
// from a wide normal (plus occasional copies of a training value so deep
// paths are reached), categorical codes uniform over the category domain.
func randomTuple(rng *rand.Rand, s *dataset.Schema, tbl *dataset.Table) dataset.Tuple {
	tu := dataset.Tuple{
		Cont: make([]float64, len(s.Attrs)),
		Cat:  make([]int32, len(s.Attrs)),
	}
	src := -1
	if tbl.NumTuples() > 0 && rng.Intn(2) == 0 {
		src = rng.Intn(tbl.NumTuples())
	}
	for a := range s.Attrs {
		if s.Attrs[a].Kind == dataset.Continuous {
			if src >= 0 {
				tu.Cont[a] = tbl.ContValue(a, src)
			} else {
				tu.Cont[a] = rng.NormFloat64() * 1e5
			}
		} else {
			tu.Cat[a] = int32(rng.Intn(len(s.Attrs[a].Categories)))
		}
	}
	return tu
}

// chainTree hand-builds a maximally unbalanced right-leaning chain of depth
// levels: node at depth d tests x < d, so a row with x = k exits at depth
// min(⌈k⌉, depth): far deeper than anything synthetic training grows.
func chainTree(depth int) *tree.Tree {
	schema := &dataset.Schema{
		Attrs:   []dataset.Attribute{{Name: "x", Kind: dataset.Continuous}},
		Classes: []string{"lo", "hi"},
	}
	node := &tree.Node{Class: 1}
	for d := depth - 1; d >= 1; d-- {
		node = &tree.Node{
			Class: 0,
			Split: &split.Candidate{Attr: 0, Kind: dataset.Continuous, Threshold: float64(d), Valid: true},
			Left:  &tree.Node{Class: int32(d % 2)},
			Right: node,
		}
	}
	return &tree.Tree{Root: node, Schema: schema}
}

// bigCatTree hand-builds a categorical-heavy tree over a card-category
// attribute; card > 64 forces multi-word subset bitmasks through the
// walker's word-indexed probe.
func bigCatTree(card int) *tree.Tree {
	cats := make([]string, card)
	for i := range cats {
		cats[i] = fmt.Sprintf("c%d", i)
	}
	schema := &dataset.Schema{
		Attrs: []dataset.Attribute{
			{Name: "c", Kind: dataset.Categorical, Categories: cats},
			{Name: "x", Kind: dataset.Continuous},
		},
		Classes: []string{"a", "b", "c"},
	}
	set1 := split.NewCatSet(card)
	set2 := split.NewCatSet(card)
	for i := 0; i < card; i++ {
		if i%3 == 0 {
			set1.Add(int32(i))
		}
		if i%5 != 0 {
			set2.Add(int32(i))
		}
	}
	root := &tree.Node{
		Split: &split.Candidate{Attr: 0, Kind: dataset.Categorical, Subset: set1, Valid: true},
		Left: &tree.Node{
			Split: &split.Candidate{Attr: 1, Kind: dataset.Continuous, Threshold: 0.5, Valid: true},
			Left:  &tree.Node{Class: 0},
			Right: &tree.Node{Class: 1},
		},
		Right: &tree.Node{
			Split: &split.Candidate{Attr: 0, Kind: dataset.Categorical, Subset: set2, Valid: true},
			Left:  &tree.Node{Class: 2},
			Right: &tree.Node{Class: 0},
		},
	}
	return &tree.Tree{Root: root, Schema: schema}
}

// TestFlatEquivalenceProperty is the subsystem's core invariant: the
// compiled predictor agrees with the pointer tree on random tuples, for
// trees grown from F1 (simple, continuous-only splits) and F7 (complex,
// mixes categorical splits) and for two hand-built shapes training rarely
// produces — a 40-level right-leaning chain, and >64-category subsets
// (multi-word bitmasks) probed with out-of-domain codes that must fall
// right.
func TestFlatEquivalenceProperty(t *testing.T) {
	type shape struct {
		name string
		seed int64
		tr   *tree.Tree
		draw func(rng *rand.Rand) dataset.Tuple
	}
	var shapes []shape
	for _, fn := range []int{1, 7} {
		tr, tbl := grow(t, fn, 4000, 0)
		shapes = append(shapes, shape{fmt.Sprintf("F%d", fn), int64(fn), tr,
			func(rng *rand.Rand) dataset.Tuple { return randomTuple(rng, tr.Schema, tbl) }})
	}
	shapes = append(shapes,
		shape{"chain", 11, chainTree(40), func(rng *rand.Rand) dataset.Tuple {
			// Cover every exit depth plus both extremes.
			return dataset.Tuple{Cont: []float64{rng.Float64()*42 - 1}, Cat: []int32{0}}
		}},
		shape{"wide-categorical", 13, bigCatTree(130), func(rng *rand.Rand) dataset.Tuple {
			// Codes up to 149 include out-of-domain values past card=130.
			return dataset.Tuple{
				Cont: []float64{0, rng.Float64()},
				Cat:  []int32{int32(rng.Intn(150)), 0},
			}
		}})
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			ft, err := Compile(sh.tr)
			if err != nil {
				t.Fatal(err)
			}
			prop := func(seed int64) bool {
				tu := sh.draw(rand.New(rand.NewSource(seed)))
				return ft.Predict(tu) == sh.tr.Predict(tu)
			}
			cfg := &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(sh.seed))}
			if err := quick.Check(prop, cfg); err != nil {
				t.Fatalf("flat and pointer predictions diverge: %v", err)
			}
		})
	}
}

// TestFlatEquivalenceOnTrainingData checks agreement on every training
// tuple, which exercises every reachable leaf.
func TestFlatEquivalenceOnTrainingData(t *testing.T) {
	tr, tbl := grow(t, 7, 4000, 0)
	ft, err := Compile(tr)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tbl.NumTuples(); i++ {
		tu := tbl.Row(i)
		if got, want := ft.Predict(tu), tr.Predict(tu); got != want {
			t.Fatalf("row %d: flat %d, pointer %d", i, got, want)
		}
	}
}

// TestMarshalCompileRoundTrip writes the tree as model JSON, reads it back,
// compiles the reloaded tree, and checks all three predictors agree.
func TestMarshalCompileRoundTrip(t *testing.T) {
	tr, tbl := grow(t, 7, 3000, 8)
	ft, err := Compile(tr)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := tree.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ft2, err := Compile(back)
	if err != nil {
		t.Fatal(err)
	}
	if len(ft2.Nodes) != len(ft.Nodes) {
		t.Fatalf("round trip changed node count: %d vs %d", len(ft2.Nodes), len(ft.Nodes))
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 2000; i++ {
		tu := randomTuple(rng, tr.Schema, tbl)
		a, b, c := tr.Predict(tu), ft.Predict(tu), ft2.Predict(tu)
		if a != b || b != c {
			t.Fatalf("tuple %d: pointer %d, flat %d, reloaded flat %d", i, a, b, c)
		}
	}
}

// TestPreorderLayout checks the compiled array's structural invariants:
// preorder adjacency (left child = i+1), forward right links, leaves
// carrying no split payload, and one node per pointer-tree node.
func TestPreorderLayout(t *testing.T) {
	tr, _ := grow(t, 7, 2000, 0)
	ft, err := Compile(tr)
	if err != nil {
		t.Fatal(err)
	}
	if want := tr.Stats().Nodes; len(ft.Nodes) != want {
		t.Fatalf("node count %d, pointer tree has %d", len(ft.Nodes), want)
	}
	for i := range ft.Nodes {
		n := &ft.Nodes[i]
		if n.IsLeaf() {
			if n.SubsetWords != 0 || n.Right != 0 {
				t.Fatalf("leaf %d carries split payload: %+v", i, n)
			}
			continue
		}
		if int(n.Right) <= i+1 || int(n.Right) >= len(ft.Nodes) {
			t.Fatalf("node %d: right link %d out of preorder range", i, n.Right)
		}
		if n.SubsetWords > 0 {
			if int(n.SubsetOff)+int(n.SubsetWords) > len(ft.Subsets) {
				t.Fatalf("node %d: subset slice out of pool bounds", i)
			}
			if ft.Schema.Attrs[n.Attr].Kind != dataset.Categorical {
				t.Fatalf("node %d: subset on continuous attribute", i)
			}
		}
	}
}

// TestPredictBatchMatchesSerial checks the sharded fan-out path returns the
// same classes as serial prediction for both serial and parallel settings.
func TestPredictBatchMatchesSerial(t *testing.T) {
	tr, tbl := grow(t, 7, 3000, 0)
	ft, err := Compile(tr)
	if err != nil {
		t.Fatal(err)
	}
	tus := make([]dataset.Tuple, tbl.NumTuples())
	for i := range tus {
		tus[i] = tbl.Row(i)
	}
	want := make([]int32, len(tus))
	for i := range tus {
		want[i] = ft.Predict(tus[i])
	}
	for _, procs := range []int{0, 1, 2, 4, 9} {
		got := ft.PredictBatch(tus, procs)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("procs=%d row %d: got %d want %d", procs, i, got[i], want[i])
			}
		}
	}
	if got := ft.PredictBatch(nil, 4); len(got) != 0 {
		t.Fatalf("empty batch returned %d results", len(got))
	}
}

// TestCompileRejectsBadTrees covers the validation paths.
func TestCompileRejectsBadTrees(t *testing.T) {
	if _, err := Compile(nil); err == nil {
		t.Fatal("nil tree accepted")
	}
	if _, err := Compile(&tree.Tree{}); err == nil {
		t.Fatal("rootless tree accepted")
	}
	tr, _ := grow(t, 1, 500, 4)
	tr.Schema = nil
	if _, err := Compile(tr); err == nil {
		t.Fatal("schemaless tree accepted")
	}
}

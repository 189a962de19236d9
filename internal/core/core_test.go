package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/dataset"
	"repro/internal/probe"
	"repro/internal/synth"
	"repro/internal/tree"
)

// carInsuranceTable reproduces the paper's Fig. 1 training set.
func carInsuranceTable(t *testing.T) *dataset.Table {
	t.Helper()
	schema := &dataset.Schema{
		Attrs: []dataset.Attribute{
			{Name: "age", Kind: dataset.Continuous},
			{Name: "cartype", Kind: dataset.Categorical, Categories: []string{"family", "sports", "truck"}},
		},
		Classes: []string{"low", "high"},
	}
	tbl, err := dataset.NewTable(schema)
	if err != nil {
		t.Fatal(err)
	}
	rows := []struct {
		age  float64
		car  int32
		risk int32
	}{
		{23, 0, 1},
		{17, 1, 1},
		{43, 1, 1},
		{68, 0, 0},
		{32, 2, 0},
		{20, 0, 1},
	}
	for _, r := range rows {
		if err := tbl.Append(dataset.Tuple{
			Cont:  []float64{r.age, 0},
			Cat:   []int32{0, r.car},
			Class: r.risk,
		}); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func TestSerialCarInsurance(t *testing.T) {
	tbl := carInsuranceTable(t)
	tr, _, err := Build(tbl, Config{Algorithm: Serial})
	if err != nil {
		t.Fatal(err)
	}
	// The paper's tree: root splits on age < 27.5, left child is "high",
	// right child splits on cartype in {sports} (or equivalently the gini
	// winner), resolving all classes.
	if tr.Root.IsLeaf() {
		t.Fatal("root should not be a leaf")
	}
	if got := tr.Root.Split.Attr; got != 0 {
		t.Fatalf("root splits on attr %d, want age (0)", got)
	}
	if got := tr.Root.Split.Threshold; got != 27.5 {
		t.Fatalf("root threshold = %g, want 27.5", got)
	}
	if acc := tr.Accuracy(tbl); acc != 1.0 {
		t.Fatalf("training accuracy = %g, want 1.0", acc)
	}
	st := tr.Stats()
	if st.Levels < 2 || st.Levels > 3 {
		t.Fatalf("levels = %d, want 2..3", st.Levels)
	}
}

func synthTable(t testing.TB, fn, attrs, n int, seed int64) *dataset.Table {
	t.Helper()
	tbl, err := synth.Generate(synth.Config{
		Function: fn, Attrs: attrs, Tuples: n, Seed: seed, Perturbation: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// TestAlgorithmsProduceIdenticalTrees is the central determinism oracle:
// every parallel scheme, at several processor counts, with both storage
// backends and all probe designs, must grow a tree identical to serial
// SPRINT's.
func TestAlgorithmsProduceIdenticalTrees(t *testing.T) {
	type variant struct {
		fn, attrs, n int
	}
	variants := []variant{
		{1, 9, 400},
		{7, 9, 400},
		{3, 12, 300},
	}
	algos := []Algorithm{Basic, FWK, MWK, Subtree, RecPar}
	for _, v := range variants {
		tbl := synthTable(t, v.fn, v.attrs, v.n, 42)
		ref, _, err := Build(tbl, Config{Algorithm: Serial, MaxDepth: 12})
		if err != nil {
			t.Fatalf("serial build F%d: %v", v.fn, err)
		}
		for _, alg := range algos {
			for _, procs := range []int{1, 2, 3, 4, 7} {
				name := fmt.Sprintf("F%d/%v/P%d", v.fn, alg, procs)
				t.Run(name, func(t *testing.T) {
					got, _, err := Build(tbl, Config{
						Algorithm: alg, Procs: procs, MaxDepth: 12,
					})
					if err != nil {
						t.Fatal(err)
					}
					if !tree.Equal(ref, got) {
						t.Fatalf("tree differs from serial: %s", tree.Diff(ref, got))
					}
				})
			}
		}
	}
}

func TestDiskStorageMatchesMemory(t *testing.T) {
	tbl := synthTable(t, 7, 9, 500, 7)
	ref, _, err := Build(tbl, Config{Algorithm: Serial, MaxDepth: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []Algorithm{Serial, Basic, FWK, MWK, Subtree, RecPar} {
		t.Run(alg.String(), func(t *testing.T) {
			got, _, err := Build(tbl, Config{
				Algorithm: alg, Procs: 3, Storage: Disk,
				TempDir: t.TempDir(), MaxDepth: 10,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !tree.Equal(ref, got) {
				t.Fatalf("tree differs from serial/memory: %s", tree.Diff(ref, got))
			}
		})
	}
}

func TestProbeKindsAgree(t *testing.T) {
	tbl := synthTable(t, 6, 9, 500, 11)
	ref, _, err := Build(tbl, Config{Algorithm: Serial, MaxDepth: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, pk := range []probe.Kind{probe.GlobalBit, probe.LeafHash, probe.LeafRelabel} {
		for _, alg := range []Algorithm{Serial, MWK, Subtree} {
			t.Run(fmt.Sprintf("%v/%v", pk, alg), func(t *testing.T) {
				got, _, err := Build(tbl, Config{
					Algorithm: alg, Procs: 4, Probe: pk, MaxDepth: 10,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !tree.Equal(ref, got) {
					t.Fatalf("tree differs from serial global-bit: %s", tree.Diff(ref, got))
				}
			})
		}
	}
}

func TestWindowSizesAgree(t *testing.T) {
	tbl := synthTable(t, 7, 9, 400, 3)
	ref, _, err := Build(tbl, Config{Algorithm: Serial, MaxDepth: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 2, 3, 8, 64} {
		for _, alg := range []Algorithm{FWK, MWK} {
			t.Run(fmt.Sprintf("%v/K%d", alg, k), func(t *testing.T) {
				got, _, err := Build(tbl, Config{
					Algorithm: alg, Procs: 4, WindowK: k, MaxDepth: 10,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !tree.Equal(ref, got) {
					t.Fatalf("tree differs from serial: %s", tree.Diff(ref, got))
				}
			})
		}
	}
}

func TestStoppingRules(t *testing.T) {
	tbl := synthTable(t, 7, 9, 500, 5)
	t.Run("MaxDepth", func(t *testing.T) {
		tr, _, err := Build(tbl, Config{Algorithm: Serial, MaxDepth: 3})
		if err != nil {
			t.Fatal(err)
		}
		if st := tr.Stats(); st.Levels > 4 {
			t.Fatalf("levels = %d, want <= 4 (depth 3 + leaf level)", st.Levels)
		}
	})
	t.Run("MinSplit", func(t *testing.T) {
		tr, _, err := Build(tbl, Config{Algorithm: Serial, MinSplit: 100})
		if err != nil {
			t.Fatal(err)
		}
		for _, leaf := range tr.CollectLeaves() {
			if leaf.N < 100 && leaf.Level > 0 {
				// A leaf smaller than MinSplit is fine; what is not fine
				// is an internal node smaller than MinSplit.
				continue
			}
		}
		var walk func(n *tree.Node)
		walk = func(n *tree.Node) {
			if n.IsLeaf() {
				return
			}
			if n.N < 100 {
				t.Fatalf("internal node with n=%d < MinSplit=100", n.N)
			}
			walk(n.Left)
			walk(n.Right)
		}
		walk(tr.Root)
	})
	t.Run("MinGiniGain", func(t *testing.T) {
		loose, _, err := Build(tbl, Config{Algorithm: Serial})
		if err != nil {
			t.Fatal(err)
		}
		tight, _, err := Build(tbl, Config{Algorithm: Serial, MinGiniGain: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		if tight.Stats().Nodes >= loose.Stats().Nodes {
			t.Fatalf("MinGiniGain did not shrink the tree: %d vs %d nodes",
				tight.Stats().Nodes, loose.Stats().Nodes)
		}
	})
}

func TestNodeInvariants(t *testing.T) {
	tbl := synthTable(t, 5, 9, 600, 9)
	tr, _, err := Build(tbl, Config{Algorithm: MWK, Procs: 3})
	if err != nil {
		t.Fatal(err)
	}
	var walk func(n *tree.Node)
	walk = func(n *tree.Node) {
		var sum int64
		for _, c := range n.ClassCounts {
			sum += c
		}
		if sum != n.N {
			t.Fatalf("node %d: class counts sum %d != n %d", n.ID, sum, n.N)
		}
		if n.IsLeaf() {
			return
		}
		if n.Left.N+n.Right.N != n.N {
			t.Fatalf("node %d: children %d+%d != %d", n.ID, n.Left.N, n.Right.N, n.N)
		}
		for j := range n.ClassCounts {
			if n.Left.ClassCounts[j]+n.Right.ClassCounts[j] != n.ClassCounts[j] {
				t.Fatalf("node %d: class %d histogram not conserved", n.ID, j)
			}
		}
		if n.Left.Level != n.Level+1 || n.Right.Level != n.Level+1 {
			t.Fatalf("node %d: child levels wrong", n.ID)
		}
		walk(n.Left)
		walk(n.Right)
	}
	walk(tr.Root)
}

// TestParallelSetupMatchesSerialSetup: nine attributes (six continuous) at
// four workers — fewer sortable lists than two per worker — must set up on
// the attribute farm exactly as one worker does.
func TestParallelSetupMatchesSerialSetup(t *testing.T) {
	tbl := synthTable(t, 2, 9, 400, 13)
	ref, _, err := Build(tbl, Config{Algorithm: Serial})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := Build(tbl, Config{Algorithm: MWK, Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !tree.Equal(ref, got) {
		t.Fatalf("tree differs: %s", tree.Diff(ref, got))
	}
}

// TestTieHeavyColumnTreesByteIdentical runs the radix pre-sort through every
// list-based engine on a column that is mostly ties, negative, and mixes −0
// with +0: every engine at Procs 1-4 on both backends — Serial included, whose
// setup is also parallel at Procs > 1 — must serialize to Serial P=1's bytes.
func TestTieHeavyColumnTreesByteIdentical(t *testing.T) {
	schema := &dataset.Schema{
		Attrs: []dataset.Attribute{
			{Name: "debt", Kind: dataset.Continuous},
			{Name: "score", Kind: dataset.Continuous},
			{Name: "kind", Kind: dataset.Categorical, Categories: []string{"a", "b", "c"}},
		},
		Classes: []string{"no", "yes"},
	}
	tbl, err := dataset.NewTable(schema)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	ties := []float64{-3, -2, -1, math.Copysign(0, -1), 0}
	for i := 0; i < 700; i++ {
		debt := -rng.ExpFloat64() * 1000
		if rng.Intn(2) == 0 {
			debt = ties[rng.Intn(len(ties))]
		}
		score := rng.NormFloat64()
		cls := int32(0)
		if debt < -1.5 != (score > 0.8) || rng.Intn(10) == 0 {
			cls = 1
		}
		tbl.AppendFast(dataset.Tuple{
			Cont:  []float64{debt, score, 0},
			Cat:   []int32{0, 0, int32(rng.Intn(3))},
			Class: cls,
		})
	}
	encode := func(tr *tree.Tree) []byte {
		var b bytes.Buffer
		if err := tr.Write(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	ref, _, err := Build(tbl, Config{Algorithm: Serial})
	if err != nil {
		t.Fatal(err)
	}
	want := encode(ref)
	for _, storage := range []Storage{Memory, Disk} {
		for _, alg := range []Algorithm{Serial, Basic, FWK, MWK, Subtree, RecPar} {
			for procs := 1; procs <= 4; procs++ {
				got, _, err := Build(tbl, Config{
					Algorithm: alg, Procs: procs, Storage: storage, TempDir: t.TempDir(),
				})
				if err != nil {
					t.Fatalf("%v/%v/P%d: %v", storage, alg, procs, err)
				}
				if !bytes.Equal(encode(got), want) {
					t.Fatalf("%v/%v/P%d: tree differs from Serial P=1: %s",
						storage, alg, procs, tree.Diff(ref, got))
				}
			}
		}
	}
}

func TestEmptyAndTinyInputs(t *testing.T) {
	schema := &dataset.Schema{
		Attrs:   []dataset.Attribute{{Name: "x", Kind: dataset.Continuous}},
		Classes: []string{"a", "b"},
	}
	t.Run("Empty", func(t *testing.T) {
		tbl, err := dataset.NewTable(schema)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := Build(tbl, Config{}); err == nil {
			t.Fatal("expected error for empty training set")
		}
	})
	t.Run("SingleTuple", func(t *testing.T) {
		tbl, _ := dataset.NewTable(schema)
		if err := tbl.Append(dataset.Tuple{Cont: []float64{1}, Cat: []int32{0}, Class: 0}); err != nil {
			t.Fatal(err)
		}
		tr, _, err := Build(tbl, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if !tr.Root.IsLeaf() || tr.Root.Class != 0 {
			t.Fatalf("single tuple should give a single leaf of its class")
		}
	})
	t.Run("AllSameClass", func(t *testing.T) {
		tbl, _ := dataset.NewTable(schema)
		for i := 0; i < 10; i++ {
			tbl.AppendFast(dataset.Tuple{Cont: []float64{float64(i)}, Cat: []int32{0}, Class: 1})
		}
		tr, _, err := Build(tbl, Config{Algorithm: Subtree, Procs: 2})
		if err != nil {
			t.Fatal(err)
		}
		if !tr.Root.IsLeaf() || tr.Root.Class != 1 {
			t.Fatal("pure training set should give a single leaf")
		}
	})
	t.Run("ConstantAttribute", func(t *testing.T) {
		// Mixed classes but no splittable attribute: root stays a leaf.
		tbl, _ := dataset.NewTable(schema)
		for i := 0; i < 10; i++ {
			tbl.AppendFast(dataset.Tuple{Cont: []float64{5}, Cat: []int32{0}, Class: int32(i % 2)})
		}
		tr, _, err := Build(tbl, Config{Algorithm: MWK, Procs: 3})
		if err != nil {
			t.Fatal(err)
		}
		if !tr.Root.IsLeaf() {
			t.Fatal("unsplittable root should stay a leaf")
		}
	})
}

func TestTimingsPopulated(t *testing.T) {
	tbl := synthTable(t, 1, 9, 300, 1)
	_, tm, err := Build(tbl, Config{Algorithm: Serial})
	if err != nil {
		t.Fatal(err)
	}
	if tm.Setup <= 0 || tm.Build <= 0 {
		t.Fatalf("timings not populated: %+v", tm)
	}
	if tm.Total() != tm.Setup+tm.Sort+tm.Build {
		t.Fatal("Total() mismatch")
	}
}

func TestConfigValidation(t *testing.T) {
	tbl := synthTable(t, 1, 9, 50, 1)
	bad := []Config{
		{Procs: -1},
		{Algorithm: RecPar, Probe: probe.LeafHash},
		{WindowK: -2},
		{MinSplit: 1},
		{MaxDepth: -1},
		{MinGiniGain: -0.5},
		{Algorithm: Algorithm(99)},
		{Storage: Storage(99)},
	}
	for i, cfg := range bad {
		if _, _, err := Build(tbl, cfg); err == nil {
			t.Errorf("config %d should have been rejected", i)
		}
	}
}

// TestCombinedFilesMatchAndCountFour exercises the paper's §2.3 refinement:
// all attributes share one striped physical file per slot, so the whole
// serial build uses at most 4 physical files — and still grows the
// identical tree.
func TestCombinedFilesMatchAndCountFour(t *testing.T) {
	tbl := synthTable(t, 7, 9, 500, 7)
	ref, _, err := Build(tbl, Config{Algorithm: Serial, MaxDepth: 10})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	got, _, err := Build(tbl, Config{
		Algorithm: Serial, Storage: Disk, TempDir: dir,
		CombinedFiles: true, MaxDepth: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !tree.Equal(ref, got) {
		t.Fatalf("combined-file build differs: %s", tree.Diff(ref, got))
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.alist"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) > 4 {
		t.Fatalf("combined mode created %d files, paper promises at most 4", len(files))
	}
	// Parallel schemes work over the combined store too.
	for _, alg := range []Algorithm{MWK, Subtree} {
		got, _, err := Build(tbl, Config{
			Algorithm: alg, Procs: 3, Storage: Disk, TempDir: t.TempDir(),
			CombinedFiles: true, MaxDepth: 10,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !tree.Equal(ref, got) {
			t.Fatalf("%v combined-file build differs: %s", alg, tree.Diff(ref, got))
		}
	}
}

// TestSubtreeMWKInner exercises the paper's §3.4 hybrid: SUBTREE groups
// running MWK internally must still grow the identical tree.
func TestSubtreeMWKInner(t *testing.T) {
	tbl := synthTable(t, 7, 9, 600, 17)
	ref, _, err := Build(tbl, Config{Algorithm: Serial, MaxDepth: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 2, 4} {
		got, _, err := Build(tbl, Config{
			Algorithm: Subtree, SubtreeInner: MWK, Procs: procs, MaxDepth: 10,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !tree.Equal(ref, got) {
			t.Fatalf("P=%d: hybrid tree differs: %s", procs, tree.Diff(ref, got))
		}
	}
	if _, _, err := Build(tbl, Config{Algorithm: Subtree, SubtreeInner: FWK}); err == nil {
		t.Fatal("FWK inner should be rejected (only Basic/MWK implemented)")
	}
}

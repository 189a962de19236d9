package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
)

// histModelBytes builds tbl with cfg and returns the serialized tree and
// the number of leaves whose histogram was derived by subtraction.
func histModelBytes(t *testing.T, tbl *dataset.Table, cfg Config) ([]byte, int64) {
	t.Helper()
	var sub atomic.Int64
	cfg.Algorithm = Hist
	cfg.histSubtracted = &sub
	tr, _, err := Build(tbl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), sub.Load()
}

// checkSubtractionIdentical builds tbl with subtraction and with every
// leaf accumulated directly, and fails unless the models are byte-identical.
// It returns the subtraction build's subtracted-leaf count.
func checkSubtractionIdentical(t *testing.T, tbl *dataset.Table, cfg Config) int64 {
	t.Helper()
	got, sub := histModelBytes(t, tbl, cfg)
	direct := cfg
	direct.histRetain = -1
	want, none := histModelBytes(t, tbl, direct)
	if none != 0 {
		t.Fatalf("forced-direct build subtracted %d leaves", none)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("subtraction changed the model (%d subtracted leaves)", sub)
	}
	return sub
}

// TestHistSubtractionByteIdentical pins histogram subtraction to the
// direct path: the same model bytes for every processor count and bin
// budget, on the F1 and F7 tables.
func TestHistSubtractionByteIdentical(t *testing.T) {
	tables := map[string]*dataset.Table{
		"F1": synthTable(t, 1, 9, 4000, 81),
		"F7": synthTable(t, 7, 9, 4000, 82),
	}
	for name, tbl := range tables {
		for _, bins := range []int{2, 16, 256} {
			var total int64
			for _, p := range []int{1, 2, 3, 5} {
				t.Run(fmt.Sprintf("%s/bins%d/P%d", name, bins, p), func(t *testing.T) {
					total += checkSubtractionIdentical(t, tbl, Config{Procs: p, MaxBins: bins})
				})
			}
			if total == 0 {
				t.Errorf("%s bins=%d: no leaf was derived by subtraction", name, bins)
			}
		}
	}
}

// fourClassTable is a 4-class table over two continuous attributes and a
// 14-category attribute (above the enumeration threshold, so its splits
// take the greedy search), with 10% label noise.
func fourClassTable(t *testing.T, n int, seed int64) *dataset.Table {
	t.Helper()
	cats := make([]string, 14)
	for i := range cats {
		cats[i] = fmt.Sprintf("k%d", i)
	}
	schema := &dataset.Schema{
		Attrs: []dataset.Attribute{
			{Name: "x", Kind: dataset.Continuous},
			{Name: "k", Kind: dataset.Categorical, Categories: cats},
			{Name: "y", Kind: dataset.Continuous},
		},
		Classes: []string{"a", "b", "c", "d"},
	}
	tbl, err := dataset.NewTable(schema)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		x, y, k := rng.Float64()*100, rng.NormFloat64()*10, int32(rng.Intn(len(cats)))
		cls := int32(0)
		if x > 50 {
			cls++
		}
		if y > 0 != (k%3 == 0) {
			cls += 2
		}
		if rng.Intn(10) == 0 {
			cls = int32(rng.Intn(4))
		}
		tbl.AppendFast(dataset.Tuple{Cont: []float64{x, 0, y}, Cat: []int32{0, k, 0}, Class: cls})
	}
	return tbl
}

// TestHistSubtractionMultiClass covers subtraction on a 4-class table.
func TestHistSubtractionMultiClass(t *testing.T) {
	tbl := fourClassTable(t, 5000, 7)
	for _, p := range []int{1, 3} {
		if checkSubtractionIdentical(t, tbl, Config{Procs: p}) == 0 {
			t.Fatalf("P=%d: no leaf was derived by subtraction", p)
		}
	}
}

// TestHistSubtractionForestMembers covers HIST forest members: bootstrap
// samples built under a feature mask (FeatureFrac 0.5), where the masked
// attributes are never searched but still subtracted.
func TestHistSubtractionForestMembers(t *testing.T) {
	src := synthTable(t, 7, 12, 5000, 83)
	rng := rand.New(rand.NewSource(84))
	nattr := src.Schema().NumAttrs()
	var total int64
	for member := 0; member < 4; member++ {
		idx := make([]int, src.NumTuples())
		for i := range idx {
			idx[i] = rng.Intn(len(idx))
		}
		mask := make([]bool, nattr)
		for _, a := range rng.Perm(nattr)[:nattr/2] {
			mask[a] = true
		}
		total += checkSubtractionIdentical(t, src.Subset(idx), Config{Procs: 2, AttrMask: mask})
	}
	if total == 0 {
		t.Fatal("no member derived a leaf by subtraction")
	}
}

// TestHistRetainFallback shrinks the retained-parent pool through the test
// seam: with no room (every leaf accumulated directly) and with room for
// one or three parents (the pool fills and later splits fall back), the
// model must not change.
func TestHistRetainFallback(t *testing.T) {
	tbl := synthTable(t, 7, 9, 6000, 85)
	want, full := histModelBytes(t, tbl, Config{Procs: 2})
	for _, retain := range []int{-1, 1, 3} {
		got, sub := histModelBytes(t, tbl, Config{Procs: 2, histRetain: retain})
		if !bytes.Equal(got, want) {
			t.Fatalf("retain pool %d changed the model", retain)
		}
		if retain < 0 && sub != 0 || retain > 0 && (sub == 0 || sub >= full) {
			t.Fatalf("retain pool %d subtracted %d leaves (full pool: %d)", retain, sub, full)
		}
	}
}

// TestHistSubtractionStraddlesBlocks uses leaf blocks of 1–5 so sibling
// pairs fall across block boundaries: a straddling pair is accumulated
// directly and its parent returned to the pool, and the model must not
// change. With one leaf per block every pair straddles.
func TestHistSubtractionStraddlesBlocks(t *testing.T) {
	tbl := synthTable(t, 7, 9, 6000, 86)
	want, _ := histModelBytes(t, tbl, Config{Procs: 3})
	for _, block := range []int{1, 2, 3, 5} {
		got, sub := histModelBytes(t, tbl, Config{Procs: 3, histBlock: block})
		if !bytes.Equal(got, want) {
			t.Fatalf("block cap %d changed the model", block)
		}
		if block == 1 && sub != 0 || block > 1 && sub == 0 {
			t.Fatalf("block cap %d subtracted %d leaves", block, sub)
		}
	}
}

// TestHistRetainAllocationBudget is the subtraction half of the HIST
// allocation gate wired into `make alloc-check`: retained parents come
// from the pool sized once in binHist, so a build that derives many leaves
// by subtraction allocates no more objects than one that accumulates every
// leaf directly.
func TestHistRetainAllocationBudget(t *testing.T) {
	tbl := synthTable(t, 7, 9, 20000, 87)
	_, sub := histModelBytes(t, tbl, Config{Procs: 1})
	if sub < 20 {
		t.Fatalf("only %d leaves derived by subtraction; the gate needs a wider tree", sub)
	}
	allocs := func(retain int) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, _, err := Build(tbl, Config{Algorithm: Hist, histRetain: retain}); err != nil {
				t.Fatal(err)
			}
		})
	}
	withSub, direct := allocs(0), allocs(-1)
	t.Logf("allocs/build: subtraction %.0f (%d leaves derived), direct %.0f", withSub, sub, direct)
	if withSub > direct+4 {
		t.Fatalf("subtraction build allocates %.0f objects, direct %.0f: retained histograms are allocated per leaf",
			withSub, direct)
	}
}

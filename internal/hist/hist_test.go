package hist

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/split"
)

func testSchema() *dataset.Schema {
	return &dataset.Schema{
		Attrs: []dataset.Attribute{
			{Name: "x", Kind: dataset.Continuous},
			{Name: "c", Kind: dataset.Categorical, Categories: []string{"a", "b", "c"}},
		},
		Classes: []string{"G", "B"},
	}
}

func TestQuantileCutsProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	col := make([]float64, 10000)
	for i := range col {
		col[i] = rng.NormFloat64() * 100
	}
	var sample []float64
	cuts := QuantileCuts(col, 64, 1000, &sample)
	if len(cuts) == 0 || len(cuts) > 63 {
		t.Fatalf("got %d cuts, want 1..63", len(cuts))
	}
	for i := 1; i < len(cuts); i++ {
		if cuts[i] <= cuts[i-1] {
			t.Fatalf("cuts not strictly ascending at %d: %v <= %v", i, cuts[i], cuts[i-1])
		}
	}
	// Determinism: same input, same cuts.
	var sample2 []float64
	cuts2 := QuantileCuts(col, 64, 1000, &sample2)
	if len(cuts) != len(cuts2) {
		t.Fatalf("non-deterministic cut count: %d vs %d", len(cuts), len(cuts2))
	}
	for i := range cuts {
		if cuts[i] != cuts2[i] {
			t.Fatalf("non-deterministic cut %d", i)
		}
	}
}

func TestQuantileCutsConstantColumn(t *testing.T) {
	col := make([]float64, 100)
	for i := range col {
		col[i] = 42
	}
	var sample []float64
	if cuts := QuantileCuts(col, 256, 0, &sample); len(cuts) != 0 {
		t.Fatalf("constant column produced %d cuts, want 0", len(cuts))
	}
}

func TestBinningRoutesLikeThreshold(t *testing.T) {
	// The defining property of the binning: for every cut c, "bin(v) <= k"
	// must be exactly "v < cuts[k]".
	rng := rand.New(rand.NewSource(2))
	col := make([]float64, 5000)
	for i := range col {
		col[i] = float64(rng.Intn(300))
	}
	cls := make([]int32, len(col))
	m := NewMatrix(testSchema(), cls)
	var sample []float64
	m.BinContinuous(0, col, 32, &sample)
	if m.NBins[0] != len(m.Cuts[0])+1 {
		t.Fatalf("NBins %d != len(cuts)+1 %d", m.NBins[0], len(m.Cuts[0])+1)
	}
	for k, c := range m.Cuts[0] {
		for i, v := range col {
			left := v < c
			binLeft := int(m.Cols[0][i]) <= k
			if left != binLeft {
				t.Fatalf("row %d value %v cut %v: threshold says %v, bin %d vs boundary %d says %v",
					i, v, c, left, m.Cols[0][i], k, binLeft)
			}
		}
	}
}

func buildTestMatrix(t *testing.T, n int, seed int64) (*Matrix, []float64, []int32, []int32) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cont := make([]float64, n)
	cat := make([]int32, n)
	cls := make([]int32, n)
	for i := 0; i < n; i++ {
		cont[i] = rng.Float64() * 1000
		cat[i] = int32(rng.Intn(3))
		cls[i] = int32(rng.Intn(2))
	}
	m := NewMatrix(testSchema(), cls)
	var sample []float64
	m.BinContinuous(0, cont, 16, &sample)
	if err := m.BinCategorical(1, cat, 3); err != nil {
		t.Fatal(err)
	}
	m.FinishLayout()
	return m, cont, cat, cls
}

func TestAccumulateMatchesNaive(t *testing.T) {
	const n = 4000
	m, _, _, cls := buildTestMatrix(t, n, 3)
	idx := make([]uint32, n)
	for i := range idx {
		idx[i] = uint32(i)
	}
	// Accumulate a sub-range in two worker-style chunks and compare against
	// a naive single pass.
	arena := make([]int64, m.Stride)
	lo, hi := 100, 3100
	mid := (lo + hi) / 2
	for a := 0; a < 2; a++ {
		m.Accumulate(m.Cell(arena, a), a, idx, lo, mid)
		m.Accumulate(m.Cell(arena, a), a, idx, mid, hi)
	}
	want := make([]int64, m.Stride)
	for i := lo; i < hi; i++ {
		for a := 0; a < 2; a++ {
			want[m.Off[a]+int(m.Cols[a][i])*m.NClass+int(cls[i])]++
		}
	}
	for i := range want {
		if arena[i] != want[i] {
			t.Fatalf("cell %d: got %d want %d", i, arena[i], want[i])
		}
	}
}

func TestPartitionStableKeepsOrderAndCounts(t *testing.T) {
	const n = 3000
	m, _, _, _ := buildTestMatrix(t, n, 4)
	idx := make([]uint32, n)
	for i := range idx {
		idx[i] = uint32(n - 1 - i) // non-trivial starting permutation
	}
	leftBin := make([]bool, m.NBins[0])
	for b := 0; b < m.NBins[0]/2; b++ {
		leftBin[b] = true
	}
	want := make([]uint32, 0, n)
	wantRight := make([]uint32, 0, n)
	for _, r := range idx {
		if leftBin[m.Cols[0][r]] {
			want = append(want, r)
		} else {
			wantRight = append(wantRight, r)
		}
	}
	want = append(want, wantRight...)
	buf := make([]uint32, n)
	nl := m.PartitionStable(0, idx, 0, n, leftBin, buf)
	if nl != len(want)-len(wantRight) {
		t.Fatalf("left count %d, want %d", nl, len(want)-len(wantRight))
	}
	for i := range idx {
		if idx[i] != want[i] {
			t.Fatalf("position %d: got row %d want %d (stability violated)", i, idx[i], want[i])
		}
	}
}

// bruteBest computes the split gini of every cut directly from the
// histogram and keeps the best under the deterministic Better order.
func bruteBest(counts []int64, cuts []float64, total []int64) split.Candidate {
	nclass := len(total)
	var n int64
	for _, c := range total {
		n += c
	}
	best := split.Candidate{Gini: math.Inf(1)}
	for k, c := range cuts {
		left := make([]int64, nclass)
		right := append([]int64(nil), total...)
		var nl int64
		for b := 0; b <= k; b++ {
			for j := 0; j < nclass; j++ {
				left[j] += counts[b*nclass+j]
				right[j] -= counts[b*nclass+j]
				nl += counts[b*nclass+j]
			}
		}
		nr := n - nl
		if nl == 0 || nr == 0 {
			continue
		}
		cand := split.Candidate{
			Attr: 0, Kind: dataset.Continuous, Threshold: c,
			Gini:  split.SplitGini(left, right, nl, nr),
			NLeft: nl, NRight: nr, Valid: true,
		}
		if cand.Better(best) {
			best = cand
		}
	}
	return best
}

// TestContSearchSparseBins holds Best's empty-bin skip and early stop to
// the brute force on histograms where most bins are empty, including
// leading and trailing runs, over 2–4 classes: the frontier's small leaves
// look like this.
func TestContSearchSparseBins(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var cs ContSearch
	for trial := 0; trial < 500; trial++ {
		nclass := 2 + rng.Intn(3)
		nbins := 2 + rng.Intn(64)
		cuts := make([]float64, nbins-1)
		for k := range cuts {
			cuts[k] = float64(k) + 0.5
		}
		counts := make([]int64, nbins*nclass)
		total := make([]int64, nclass)
		var n int64
		for b := 0; b < nbins; b++ {
			if rng.Intn(5) != 0 {
				continue // ~80% of bins empty
			}
			for j := 0; j < nclass; j++ {
				c := int64(rng.Intn(3))
				counts[b*nclass+j] = c
				total[j] += c
				n += c
			}
		}
		got := cs.Best(0, counts, cuts, total, n)
		want := bruteBest(counts, cuts, total)
		if got.Valid != want.Valid || math.Float64bits(got.Gini) != math.Float64bits(want.Gini) ||
			got.Threshold != want.Threshold || got.NLeft != want.NLeft || got.NRight != want.NRight {
			t.Fatalf("trial %d: Best() = %+v, brute force = %+v", trial, got, want)
		}
	}
}

func TestContSearchMatchesBruteForce(t *testing.T) {
	const n = 2000
	m, _, _, cls := buildTestMatrix(t, n, 5)
	idx := make([]uint32, n)
	for i := range idx {
		idx[i] = uint32(i)
	}
	arena := make([]int64, m.Stride)
	m.Accumulate(m.Cell(arena, 0), 0, idx, 0, n)
	total := make([]int64, 2)
	for _, c := range cls {
		total[c]++
	}
	var cs ContSearch
	got := cs.Best(0, m.Cell(arena, 0), m.Cuts[0], total, int64(n))
	if !got.Valid {
		t.Fatal("no valid candidate on a mixed node")
	}

	best := bruteBest(m.Cell(arena, 0), m.Cuts[0], total)
	if got.Threshold != best.Threshold || got.Gini != best.Gini ||
		got.NLeft != best.NLeft || got.NRight != best.NRight {
		t.Fatalf("Best() = %+v, brute force = %+v", got, best)
	}
	// The threshold must be one of the attribute's cuts, so LeftBins can
	// recover the boundary index exactly.
	if i := sort.SearchFloat64s(m.Cuts[0], got.Threshold); i >= len(m.Cuts[0]) || m.Cuts[0][i] != got.Threshold {
		t.Fatalf("threshold %v is not a cut value", got.Threshold)
	}
}

// TestHistWorkUnitAllocationBudget is the Hist half of the allocation gate
// wired into `make alloc-check`: after warm-up, the steady-state histogram
// loop — accumulate, boundary search, stable partition — must touch the
// allocator zero times.
func TestHistWorkUnitAllocationBudget(t *testing.T) {
	const n = 20000
	m, _, _, cls := buildTestMatrix(t, n, 6)
	idx := make([]uint32, n)
	for i := range idx {
		idx[i] = uint32(i)
	}
	total := make([]int64, 2)
	for _, c := range cls {
		total[c]++
	}
	arena := make([]int64, m.Stride)
	buf := make([]uint32, n)
	var cs ContSearch
	leftBin := make([]bool, m.NBins[0])
	unit := func() {
		for i := range arena {
			arena[i] = 0
		}
		for a := 0; a < 2; a++ {
			m.Accumulate(m.Cell(arena, a), a, idx, 0, n)
		}
		c := cs.Best(0, m.Cell(arena, 0), m.Cuts[0], total, int64(n))
		k := sort.SearchFloat64s(m.Cuts[0], c.Threshold)
		for b := range leftBin {
			leftBin[b] = b <= k
		}
		m.PartitionStable(0, idx, 0, n, leftBin, buf)
	}
	unit() // warm-up sizes the search scratch
	if avg := testing.AllocsPerRun(10, unit); avg != 0 {
		t.Errorf("steady-state histogram loop allocates %.1f objects/op, want 0", avg)
	}
}

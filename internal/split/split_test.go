package split

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/alist"
	"repro/internal/dataset"
)

func TestGiniBasics(t *testing.T) {
	cases := []struct {
		counts []int64
		n      int64
		want   float64
	}{
		{[]int64{0, 0}, 0, 0},          // empty set
		{[]int64{4, 0}, 4, 0},          // pure
		{[]int64{2, 2}, 4, 0.5},        // even two-class
		{[]int64{1, 1, 1, 1}, 4, 0.75}, // even four-class
		{[]int64{3, 1}, 4, 1 - (9.0/16 + 1.0/16)},
	}
	for _, c := range cases {
		if got := Gini(c.counts, c.n); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Gini(%v, %d) = %g, want %g", c.counts, c.n, got, c.want)
		}
	}
}

// Property: gini is always within [0, 1-1/k] for k classes.
func TestGiniRangeProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 16 {
			raw = raw[:16]
		}
		counts := make([]int64, len(raw))
		var n int64
		for i, r := range raw {
			counts[i] = int64(r)
			n += int64(r)
		}
		g := Gini(counts, n)
		upper := 1 - 1/float64(len(counts))
		return g >= -1e-12 && g <= upper+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: SplitGini never exceeds the parent's gini... is false in
// general for gini (unlike entropy gain it can only decrease or stay equal
// for binary partitions by convexity). Verify the convexity property:
// weighted child gini <= parent gini.
func TestSplitGiniConvexityProperty(t *testing.T) {
	f := func(l0, l1, r0, r1 uint16) bool {
		left := []int64{int64(l0), int64(l1)}
		right := []int64{int64(r0), int64(r1)}
		nl := left[0] + left[1]
		nr := right[0] + right[1]
		if nl+nr == 0 {
			return true
		}
		parent := []int64{left[0] + right[0], left[1] + right[1]}
		return SplitGini(left, right, nl, nr) <= Gini(parent, nl+nr)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestCatSet(t *testing.T) {
	s := NewCatSet(70)
	if s.Count() != 0 {
		t.Fatal("new set not empty")
	}
	s.Add(0)
	s.Add(63)
	s.Add(64)
	s.Add(69)
	if !s.Has(0) || !s.Has(63) || !s.Has(64) || !s.Has(69) {
		t.Fatal("membership across word boundary broken")
	}
	if s.Has(1) || s.Has(65) {
		t.Fatal("false positives")
	}
	if s.Count() != 4 {
		t.Fatalf("count = %d, want 4", s.Count())
	}
	c := s.Clone()
	if !c.Equal(s) {
		t.Fatal("clone not equal")
	}
	c.Remove(63)
	if c.Equal(s) || c.Has(63) || c.Count() != 3 {
		t.Fatal("remove broken")
	}
	if got := s.String(); got != "{0,63,64,69}" {
		t.Fatalf("String = %q", got)
	}
	// Out-of-range lookups are false, not panics.
	if s.Has(-1) || s.Has(1000) {
		t.Fatal("out-of-range Has should be false")
	}
}

// bruteForceCont finds the best midpoint split by trying every one.
func bruteForceCont(recs []alist.Record, nclass int) (float64, float64, bool) {
	n := int64(len(recs))
	total := make([]int64, nclass)
	for _, r := range recs {
		total[r.Class]++
	}
	bestG := math.Inf(1)
	bestT := 0.0
	found := false
	below := make([]int64, nclass)
	var nb int64
	for i := 0; i < len(recs)-1; i++ {
		below[recs[i].Class]++
		nb++
		if recs[i].Value == recs[i+1].Value {
			continue
		}
		above := make([]int64, nclass)
		for j := range above {
			above[j] = total[j] - below[j]
		}
		g := SplitGini(below, above, nb, n-nb)
		th := (recs[i].Value + recs[i+1].Value) / 2
		if !found || g < bestG || (g == bestG && th < bestT) {
			bestG, bestT, found = g, th, true
		}
	}
	return bestG, bestT, found
}

func TestContEvalMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(60)
		recs := make([]alist.Record, n)
		for i := range recs {
			recs[i] = alist.Record{
				Value: float64(rng.Intn(10)), // few distinct values → ties
				Tid:   uint32(i),
				Class: int32(rng.Intn(3)),
			}
		}
		alist.SortByValue(recs, nil)
		total := make([]int64, 3)
		for _, r := range recs {
			total[r.Class]++
		}
		ev := NewContEval(7, total)
		ev.PushChunk(recs)
		got := ev.Finish()
		wantG, wantT, wantValid := bruteForceCont(recs, 3)
		if got.Valid != wantValid {
			t.Fatalf("trial %d: valid = %v, want %v", trial, got.Valid, wantValid)
		}
		if !wantValid {
			continue
		}
		if math.Abs(got.Gini-wantG) > 1e-12 || got.Threshold != wantT {
			t.Fatalf("trial %d: got (g=%g, t=%g), want (g=%g, t=%g)",
				trial, got.Gini, got.Threshold, wantG, wantT)
		}
		if got.Attr != 7 || got.Kind != dataset.Continuous {
			t.Fatalf("trial %d: wrong attr/kind", trial)
		}
		if got.NLeft+got.NRight != int64(n) {
			t.Fatalf("trial %d: NLeft+NRight=%d, want %d", trial, got.NLeft+got.NRight, n)
		}
	}
}

func TestContEvalChunksInvariant(t *testing.T) {
	// Pushing chunked vs all-at-once must give the same candidate.
	rng := rand.New(rand.NewSource(5))
	recs := make([]alist.Record, 200)
	for i := range recs {
		recs[i] = alist.Record{Value: rng.Float64() * 100, Tid: uint32(i), Class: int32(rng.Intn(2))}
	}
	alist.SortByValue(recs, nil)
	total := []int64{0, 0}
	for _, r := range recs {
		total[r.Class]++
	}
	one := NewContEval(0, total)
	one.PushChunk(recs)
	chunked := NewContEval(0, total)
	for i := 0; i < len(recs); i += 7 {
		end := i + 7
		if end > len(recs) {
			end = len(recs)
		}
		chunked.PushChunk(recs[i:end])
	}
	a, b := one.Finish(), chunked.Finish()
	if a.Gini != b.Gini || a.Threshold != b.Threshold || a.Valid != b.Valid {
		t.Fatalf("chunked evaluation differs: %+v vs %+v", a, b)
	}
}

func TestContEvalSingleDistinctValueInvalid(t *testing.T) {
	recs := []alist.Record{{Value: 5, Class: 0}, {Value: 5, Class: 1}, {Value: 5, Class: 0}}
	ev := NewContEval(0, []int64{2, 1})
	ev.PushChunk(recs)
	if ev.Finish().Valid {
		t.Fatal("single distinct value must be unsplittable")
	}
}

// bruteForceCat finds the best subset split by trying every bipartition of
// present categories.
func bruteForceCat(recs []alist.Record, card, nclass int) (float64, bool) {
	counts := make([]int64, nclass*card)
	catTot := make([]int64, card)
	total := make([]int64, nclass)
	for _, r := range recs {
		c := int(r.Value)
		counts[int(r.Class)*card+c]++
		catTot[c]++
		total[r.Class]++
	}
	var present []int
	for c := 0; c < card; c++ {
		if catTot[c] > 0 {
			present = append(present, c)
		}
	}
	if len(present) < 2 {
		return 0, false
	}
	bestG := math.Inf(1)
	found := false
	for mask := 1; mask < 1<<len(present)-1; mask++ {
		left := make([]int64, nclass)
		right := append([]int64(nil), total...)
		var nl int64
		for i, c := range present {
			if mask&(1<<i) == 0 {
				continue
			}
			for j := 0; j < nclass; j++ {
				left[j] += counts[j*card+c]
				right[j] -= counts[j*card+c]
			}
			nl += catTot[c]
		}
		g := SplitGini(left, right, nl, int64(len(recs))-nl)
		if g < bestG {
			bestG = g
			found = true
		}
	}
	return bestG, found
}

func TestCatEvalEnumerationMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		card := 2 + rng.Intn(6)
		n := 2 + rng.Intn(80)
		recs := make([]alist.Record, n)
		for i := range recs {
			recs[i] = alist.Record{Value: float64(rng.Intn(card)), Tid: uint32(i), Class: int32(rng.Intn(2))}
		}
		total := []int64{0, 0}
		for _, r := range recs {
			total[r.Class]++
		}
		ev := NewCatEval(3, card, total, 0)
		ev.PushChunk(recs)
		got := ev.Finish()
		wantG, wantValid := bruteForceCat(recs, card, 2)
		if got.Valid != wantValid {
			t.Fatalf("trial %d: valid = %v, want %v", trial, got.Valid, wantValid)
		}
		if !wantValid {
			continue
		}
		if math.Abs(got.Gini-wantG) > 1e-12 {
			t.Fatalf("trial %d: gini = %g, want %g", trial, got.Gini, wantG)
		}
		// The returned subset must actually achieve the gini it claims.
		verifySubsetGini(t, recs, got, 2, card)
	}
}

func verifySubsetGini(t *testing.T, recs []alist.Record, c Candidate, nclass, card int) {
	t.Helper()
	left := make([]int64, nclass)
	right := make([]int64, nclass)
	var nl, nr int64
	for _, r := range recs {
		if c.Subset.Has(int32(r.Value)) {
			left[r.Class]++
			nl++
		} else {
			right[r.Class]++
			nr++
		}
	}
	if nl != c.NLeft || nr != c.NRight {
		t.Fatalf("subset sizes %d/%d don't match candidate %d/%d", nl, nr, c.NLeft, c.NRight)
	}
	if g := SplitGini(left, right, nl, nr); math.Abs(g-c.Gini) > 1e-12 {
		t.Fatalf("subset achieves gini %g, candidate claims %g", g, c.Gini)
	}
}

// Property: greedy subsetting is never better than exhaustive enumeration
// (it's a heuristic) but must always return a *valid achievable* split.
func TestCatEvalGreedyAchievable(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		card := 12 + rng.Intn(8) // forces greedy with default threshold
		n := 50 + rng.Intn(200)
		recs := make([]alist.Record, n)
		for i := range recs {
			recs[i] = alist.Record{Value: float64(rng.Intn(card)), Tid: uint32(i), Class: int32(rng.Intn(3))}
		}
		total := make([]int64, 3)
		for _, r := range recs {
			total[r.Class]++
		}
		ev := NewCatEval(0, card, total, 0)
		ev.PushChunk(recs)
		got := ev.Finish()
		if !got.Valid {
			continue
		}
		verifySubsetGini(t, recs, got, 3, card)
		// Greedy must not be worse than the trivial best single-category
		// split (its first step considers all of those).
		single := math.Inf(1)
		for c := 0; c < card; c++ {
			left := make([]int64, 3)
			right := append([]int64(nil), total...)
			var nl int64
			for _, r := range recs {
				if int(r.Value) == c {
					left[r.Class]++
					nl++
				}
			}
			for j := range right {
				right[j] -= left[j]
			}
			if nl == 0 || nl == int64(n) {
				continue
			}
			if g := SplitGini(left, right, nl, int64(n)-nl); g < single {
				single = g
			}
		}
		if got.Gini > single+1e-12 {
			t.Fatalf("trial %d: greedy gini %g worse than best single-category %g",
				trial, got.Gini, single)
		}
	}
}

func TestCandidateBetterOrdering(t *testing.T) {
	invalid := Candidate{Valid: false, Gini: 0}
	a := Candidate{Valid: true, Gini: 0.3, Attr: 1, Kind: dataset.Continuous, Threshold: 5}
	b := Candidate{Valid: true, Gini: 0.3, Attr: 2, Kind: dataset.Continuous, Threshold: 1}
	c := Candidate{Valid: true, Gini: 0.2, Attr: 9, Kind: dataset.Continuous, Threshold: 9}
	d := Candidate{Valid: true, Gini: 0.3, Attr: 1, Kind: dataset.Continuous, Threshold: 4}

	if invalid.Better(a) {
		t.Fatal("invalid must not beat valid")
	}
	if !a.Better(invalid) {
		t.Fatal("valid must beat invalid")
	}
	if !c.Better(a) || !c.Better(b) {
		t.Fatal("lower gini must win")
	}
	if !a.Better(b) {
		t.Fatal("ties must break toward lower attribute index")
	}
	if !d.Better(a) {
		t.Fatal("same-attr ties must break toward lower threshold")
	}
	if a.Better(a) {
		t.Fatal("Better must be a strict order")
	}
	// Sorting with Better must be deterministic total preorder: verify
	// antisymmetry on a shuffled set.
	cands := []Candidate{a, b, c, d, invalid}
	sort.Slice(cands, func(i, j int) bool { return cands[i].Better(cands[j]) })
	if cands[0].Attr != c.Attr || cands[0].Gini != c.Gini {
		t.Fatalf("best candidate after sort = %+v, want c", cands[0])
	}
}

func TestGoesLeft(t *testing.T) {
	cont := Candidate{Kind: dataset.Continuous, Threshold: 10}
	if !cont.GoesLeft(9.999) || cont.GoesLeft(10) || cont.GoesLeft(10.1) {
		t.Fatal("continuous GoesLeft must be value < threshold")
	}
	set := NewCatSet(5)
	set.Add(2)
	cat := Candidate{Kind: dataset.Categorical, Subset: set}
	if !cat.GoesLeft(2) || cat.GoesLeft(3) {
		t.Fatal("categorical GoesLeft must be subset membership")
	}
}

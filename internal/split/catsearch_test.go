package split

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
)

// The reference categorical search: the per-mask / per-trial re-summing
// enumerate and greedy that the incremental search replaced, kept verbatim
// in behaviour so the parity tests below can hold the incremental walk to
// it bit for bit.

// refEvalSubset sums the categories at present indices in the subset from
// scratch and returns the split gini.
func refEvalSubset(e *CatEval, present []int32, member func(i int) bool) (g float64, nl, nr int64) {
	left := make([]int64, e.nclasses)
	right := append([]int64(nil), e.total...)
	for i, cat := range present {
		if !member(i) {
			continue
		}
		for j := 0; j < e.nclasses; j++ {
			c := e.counts[j*e.card+int(cat)]
			left[j] += c
			right[j] -= c
		}
		nl += e.catTot[cat]
	}
	nr = e.n - nl
	return SplitGini(left, right, nl, nr), nl, nr
}

// refEnumerate scans the masks with bit 0 set in ascending order; a later
// mask wins only with strictly lower gini.
func refEnumerate(e *CatEval, present []int32) Candidate {
	best := Candidate{Attr: e.attr, Kind: dataset.Categorical, Gini: math.Inf(1)}
	m := len(present)
	for mask := uint64(1); mask < 1<<uint(m); mask += 2 {
		if mask == (1<<uint(m))-1 {
			continue
		}
		g, nl, nr := refEvalSubset(e, present, func(i int) bool { return mask&(1<<uint(i)) != 0 })
		if nl == 0 || nr == 0 {
			continue
		}
		if best.Valid && g >= best.Gini {
			continue
		}
		set := NewCatSet(e.card)
		for i, cat := range present {
			if mask&(1<<uint(i)) != 0 {
				set.Add(cat)
			}
		}
		best.Gini, best.Subset = g, set
		best.NLeft, best.NRight = nl, nr
		best.Valid = true
	}
	return best
}

// refGreedy grows the left subset one category at a time, re-summing the
// whole subset for every trial.
func refGreedy(e *CatEval, present []int32) Candidate {
	inLeft := make([]bool, len(present))
	member := func(i int) bool { return inLeft[i] }
	bestGini := math.Inf(1)
	var bestCand Candidate
	for {
		improved := -1
		roundBest := bestGini
		var roundCand Candidate
		for i := range present {
			if inLeft[i] {
				continue
			}
			inLeft[i] = true
			g, nl, nr := refEvalSubset(e, present, member)
			inLeft[i] = false
			if nl == 0 || nr == 0 {
				continue
			}
			if g < roundBest {
				roundBest = g
				improved = i
				roundCand = Candidate{Attr: e.attr, Kind: dataset.Categorical,
					Gini: g, NLeft: nl, NRight: nr, Valid: true}
			}
		}
		if improved < 0 {
			break
		}
		inLeft[improved] = true
		bestGini = roundBest
		set := NewCatSet(e.card)
		for i, cat := range present {
			if inLeft[i] {
				set.Add(cat)
			}
		}
		roundCand.Subset = set
		bestCand = roundCand
	}
	if !bestCand.Valid {
		return Candidate{Attr: e.attr, Kind: dataset.Categorical, Gini: math.Inf(1)}
	}
	return bestCand
}

// refFinish is CatEval.Finish over the reference searches.
func refFinish(e *CatEval) Candidate {
	var present []int32
	for c := 0; c < e.card; c++ {
		if e.catTot[c] > 0 {
			present = append(present, int32(c))
		}
	}
	if len(present) < 2 {
		return Candidate{Attr: e.attr, Kind: dataset.Categorical, Gini: math.Inf(1)}
	}
	if len(present) <= e.maxEnum {
		return refEnumerate(e, present)
	}
	return refGreedy(e, present)
}

// catCounts is one categorical search input: counts[class][cat].
type catCounts [][]int64

// eval loads the counts into a fresh CatEval for attribute 5.
func (cc catCounts) eval() *CatEval {
	nclass, card := len(cc), len(cc[0])
	total := make([]int64, nclass)
	for j := range cc {
		for _, c := range cc[j] {
			total[j] += c
		}
	}
	e := NewCatEval(5, card, total, 0)
	for j := range cc {
		for b, c := range cc[j] {
			e.AddCount(j, b, c)
		}
	}
	return e
}

// checkCatParity fails unless the incremental search returns exactly the
// reference search's candidate: the gini bit-equal, the same subset, the
// same counts and the same validity.
func checkCatParity(t *testing.T, cc catCounts) {
	t.Helper()
	got := cc.eval().Finish()
	want := refFinish(cc.eval())
	if math.Float64bits(got.Gini) != math.Float64bits(want.Gini) ||
		!got.Subset.Equal(want.Subset) ||
		got.NLeft != want.NLeft || got.NRight != want.NRight ||
		got.Valid != want.Valid || got.Attr != want.Attr || got.Kind != want.Kind {
		t.Fatalf("counts %v:\n got  %+v subset %v\n want %+v subset %v",
			cc, got, got.Subset, want, want.Subset)
	}
}

// randomCatCounts draws a card×nclass count table with roughly a quarter of
// the categories empty and, when dups is set, every third category a copy of
// its predecessor's column (equal columns force gini ties between masks).
func randomCatCounts(rng *rand.Rand, card, nclass int, dups bool) catCounts {
	cc := make(catCounts, nclass)
	for j := range cc {
		cc[j] = make([]int64, card)
	}
	for b := 0; b < card; b++ {
		empty := rng.Intn(4) == 0
		dup := dups && b > 0 && b%3 == 0
		for j := 0; j < nclass; j++ {
			switch {
			case empty:
			case dup:
				cc[j][b] = cc[j][b-1]
			default:
				cc[j][b] = int64(rng.Intn(40))
			}
		}
	}
	return cc
}

// TestCatEvalSearchMatchesReference holds enumerate (cardinality 2–10) and
// greedy (11–40) to the re-summing reference over 2–5 classes, with empty
// categories and forced ties. The all-equal table makes every mask and every
// greedy trial tie, so it pins both tie rules.
func TestCatEvalSearchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for card := 2; card <= 40; card++ {
		for nclass := 2; nclass <= 5; nclass++ {
			for _, dups := range []bool{false, true} {
				t.Run(fmt.Sprintf("card%d/classes%d/dups=%v", card, nclass, dups), func(t *testing.T) {
					for trial := 0; trial < 6; trial++ {
						checkCatParity(t, randomCatCounts(rng, card, nclass, dups))
					}
					equal := make(catCounts, nclass)
					for j := range equal {
						equal[j] = make([]int64, card)
						for b := range equal[j] {
							equal[j][b] = int64(j + 1)
						}
					}
					checkCatParity(t, equal)
				})
			}
		}
	}
	// Hand-written edge rows: all-tie columns, a single present category,
	// one category holding every record of one class, and all-empty but two.
	for _, cc := range []catCounts{
		{{3, 3, 3, 3}, {1, 1, 1, 1}},
		{{0, 7, 0}, {0, 2, 0}},
		{{5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, {0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}},
		{{0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 9}, {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1}},
		{{2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2}, {1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, {0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1}},
	} {
		checkCatParity(t, cc)
	}
}

// catCountsFromBytes decodes a fuzz input into a count table: byte 0 picks
// the cardinality (2–40), byte 1 the classes (2–5), byte 2 a duplicate-
// column stride (0 = none), and the remaining bytes, cycled, the counts.
// A count byte below 64 is an empty cell, so empty categories are common.
func catCountsFromBytes(data []byte) catCounts {
	if len(data) < 4 {
		return nil
	}
	card := 2 + int(data[0])%39
	nclass := 2 + int(data[1])%4
	dupStride := int(data[2]) % 5
	body := data[3:]
	cc := make(catCounts, nclass)
	for j := range cc {
		cc[j] = make([]int64, card)
	}
	k := 0
	for b := 0; b < card; b++ {
		for j := 0; j < nclass; j++ {
			if dupStride > 0 && b > 0 && b%dupStride == 0 {
				cc[j][b] = cc[j][b-1]
				continue
			}
			if v := body[k%len(body)]; v >= 64 {
				cc[j][b] = int64(v - 64)
			}
			k++
		}
	}
	return cc
}

// FuzzCatEvalSearch holds the incremental categorical search to the
// re-summing reference on arbitrary count tables.
func FuzzCatEvalSearch(f *testing.F) {
	f.Add([]byte{0, 0, 0, 70, 80, 90, 100})
	f.Add([]byte{8, 1, 3, 200, 10, 65, 130, 64, 99})
	f.Add([]byte{18, 3, 2, 64, 65, 66, 67, 68, 69, 250, 0, 120})
	f.Add([]byte{38, 2, 0, 255, 1, 128, 77, 64, 64, 190})
	f.Fuzz(func(t *testing.T, data []byte) {
		if cc := catCountsFromBytes(data); cc != nil {
			checkCatParity(t, cc)
		}
	})
}

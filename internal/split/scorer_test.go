package split_test

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/alist"
	"repro/internal/dataset"
	"repro/internal/hist"
	"repro/internal/split"
)

// The float-only references: every split search as it ran before the
// Scorer screened candidates, calling SplitGini at every candidate and
// judging it by the search's own rule (strict <, and the smallest mask on
// a categorical tie). The tests below hold the scored searches to them bit
// for bit: the Scorer may only skip candidates that lose anyway.

// refCont is ContEval's float-only scan: it recomputes the above histogram
// and SplitGini at every distinct value.
type refCont struct {
	total, below []int64
	n, nBelow    int64
	prev         float64
	started      bool
	best         split.Candidate
}

func newRefCont(attr int, total, below []int64, prev float64, started bool) *refCont {
	r := &refCont{
		total:   total,
		below:   make([]int64, len(total)),
		prev:    prev,
		started: started,
		best:    split.Candidate{Attr: attr, Kind: dataset.Continuous, Gini: math.Inf(1)},
	}
	for j, c := range total {
		r.n += c
		if below != nil {
			r.below[j] = below[j]
			r.nBelow += below[j]
		}
	}
	return r
}

func (r *refCont) push(rec alist.Record) {
	if r.started && rec.Value != r.prev {
		r.consider(rec.Value)
	}
	r.below[rec.Class]++
	r.nBelow++
	r.prev = rec.Value
	r.started = true
}

func (r *refCont) consider(v float64) {
	nl := r.nBelow
	nr := r.n - nl
	if nl == 0 || nr == 0 {
		return
	}
	above := make([]int64, len(r.total))
	for j := range above {
		above[j] = r.total[j] - r.below[j]
	}
	g := split.SplitGini(r.below, above, nl, nr)
	if r.best.Valid && g >= r.best.Gini {
		return
	}
	m := (r.prev + v) / 2
	if !(r.prev < m && m <= v) {
		m = v
	}
	r.best.Gini, r.best.Threshold = g, m
	r.best.NLeft, r.best.NRight = nl, nr
	r.best.Valid = true
}

// catTable is a categorical search input: counts[class][cat].
type catTable [][]int64

func (ct catTable) total() []int64 {
	total := make([]int64, len(ct))
	for j := range ct {
		for _, c := range ct[j] {
			total[j] += c
		}
	}
	return total
}

// refCat is CatEval.Finish's float-only search: the Gray-code enumeration
// and the incremental greedy subsetting, with SplitGini at every mask and
// every trial.
func refCat(attr int, ct catTable, maxEnum int) split.Candidate {
	nc, card := len(ct), len(ct[0])
	total := ct.total()
	var n int64
	for _, c := range total {
		n += c
	}
	catTot := make([]int64, card)
	var present []int32
	for c := 0; c < card; c++ {
		for j := 0; j < nc; j++ {
			catTot[c] += ct[j][c]
		}
		if catTot[c] > 0 {
			present = append(present, int32(c))
		}
	}
	best := split.Candidate{Attr: attr, Kind: dataset.Categorical, Gini: math.Inf(1)}
	if len(present) < 2 {
		return best
	}
	row := func(i int) []int64 {
		r := make([]int64, nc)
		for j := range r {
			r[j] = ct[j][present[i]]
		}
		return r
	}
	left, right := make([]int64, nc), slices.Clone(total)
	move := func(r []int64, in bool) {
		for j, c := range r {
			if !in {
				c = -c
			}
			left[j] += c
			right[j] -= c
		}
	}
	m := len(present)
	member := func(keep func(i int) bool) split.CatSet {
		set := split.NewCatSet(card)
		for i, cat := range present {
			if keep(i) {
				set.Add(cat)
			}
		}
		return set
	}
	if m <= maxEnum {
		move(row(0), true)
		nl := catTot[present[0]]
		full := uint64(1)<<uint(m) - 1
		var bestMask uint64
		for k := uint64(0); k < 1<<uint(m-1); k++ {
			if k > 0 {
				i := bits.TrailingZeros64(k) + 1
				in := (k^k>>1)&(1<<uint(i-1)) != 0
				move(row(i), in)
				if in {
					nl += catTot[present[i]]
				} else {
					nl -= catTot[present[i]]
				}
			}
			mask := 1 | (k^k>>1)<<1
			nr := n - nl
			if mask == full || nl == 0 || nr == 0 {
				continue
			}
			g := split.SplitGini(left, right, nl, nr)
			if best.Valid && (g > best.Gini || g == best.Gini && mask > bestMask) {
				continue
			}
			best.Gini, bestMask = g, mask
			best.NLeft, best.NRight = nl, nr
			best.Valid = true
		}
		if best.Valid {
			best.Subset = member(func(i int) bool { return bestMask&(1<<uint(i)) != 0 })
		}
		return best
	}
	inLeft := make([]bool, m)
	tl, tr := make([]int64, nc), make([]int64, nc)
	var nl int64
	for {
		improved := -1
		roundBest := best.Gini
		var roundNL int64
		for i, cat := range present {
			if inLeft[i] {
				continue
			}
			for j, c := range row(i) {
				tl[j] = left[j] + c
				tr[j] = right[j] - c
			}
			tnl := nl + catTot[cat]
			tnr := n - tnl
			if tnl == 0 || tnr == 0 {
				continue
			}
			if g := split.SplitGini(tl, tr, tnl, tnr); g < roundBest {
				roundBest, roundNL, improved = g, tnl, i
			}
		}
		if improved < 0 {
			break
		}
		inLeft[improved] = true
		move(row(improved), true)
		nl = roundNL
		best.Gini, best.NLeft, best.NRight, best.Valid = roundBest, nl, n-nl, true
	}
	if best.Valid {
		best.Subset = member(func(i int) bool { return inLeft[i] })
	}
	return best
}

// refBins is hist.ContSearch.Best's float-only boundary scan.
func refBins(attr int, counts []int64, cuts []float64, total []int64, n int64) split.Candidate {
	nclass := len(total)
	below, above := make([]int64, nclass), make([]int64, nclass)
	best := split.Candidate{Attr: attr, Kind: dataset.Continuous, Gini: math.Inf(1)}
	var nBelow int64
	for k := range cuts {
		var nb int64
		for j := 0; j < nclass; j++ {
			c := counts[k*nclass+j]
			below[j] += c
			nb += c
		}
		if nb == 0 {
			continue
		}
		nBelow += nb
		if nBelow >= n {
			break
		}
		nl, nr := nBelow, n-nBelow
		for j := 0; j < nclass; j++ {
			above[j] = total[j] - below[j]
		}
		g := split.SplitGini(below, above, nl, nr)
		if best.Valid && g >= best.Gini {
			continue
		}
		best.Gini, best.Threshold = g, cuts[k]
		best.NLeft, best.NRight = nl, nr
		best.Valid = true
	}
	return best
}

// sameCandidate fails unless got is want to the bit: Gini and Threshold
// bits, counts, subset, validity, attribute and kind.
func sameCandidate(t *testing.T, what string, got, want split.Candidate) {
	t.Helper()
	if math.Float64bits(got.Gini) != math.Float64bits(want.Gini) ||
		math.Float64bits(got.Threshold) != math.Float64bits(want.Threshold) ||
		got.NLeft != want.NLeft || got.NRight != want.NRight ||
		!got.Subset.Equal(want.Subset) || got.Valid != want.Valid ||
		got.Attr != want.Attr || got.Kind != want.Kind {
		t.Fatalf("%s:\n got  %+v subset %v\n want %+v subset %v", what, got, got.Subset, want, want.Subset)
	}
}

// scorerCase is one leaf's records, sorted by value; values are small
// integers, so a continuous list has many equal values and a categorical
// list (the same values as category codes) many equal columns.
type scorerCase struct {
	nclass int
	recs   []alist.Record
}

func (sc scorerCase) total() []int64 {
	total := make([]int64, sc.nclass)
	for _, r := range sc.recs {
		total[r.Class]++
	}
	return total
}

// reused evaluators: every check runs on one ContEval, CatEval and
// ContSearch across cases, so Reset's buffer reuse across class counts and
// cardinalities is exercised too.
type evaluators struct {
	cont split.ContEval
	cat  split.CatEval
	bins hist.ContSearch
}

// check runs every scored search over the case and holds each to its
// float-only reference. cut splits the list for the record-parallel seeded
// form; chunk sizes for chunked pushes are drawn from rng.
func (ev *evaluators) check(t *testing.T, sc scorerCase, cut int, rng *rand.Rand) {
	t.Helper()
	recs, total := sc.recs, sc.total()
	ref := newRefCont(3, total, nil, 0, false)
	for _, r := range recs {
		ref.push(r)
	}
	want := ref.best

	// Whole list, one chunk.
	ev.cont.Reset(3, total)
	ev.cont.PushChunk(recs)
	sameCandidate(t, fmt.Sprintf("ContEval %v", recs), ev.cont.Finish(), want)

	// Random chunks, and single-record Push.
	ev.cont.Reset(3, total)
	for rest := recs; len(rest) > 0; {
		k := min(len(rest), 1+rng.Intn(7))
		ev.cont.PushChunk(rest[:k])
		rest = rest[k:]
	}
	sameCandidate(t, fmt.Sprintf("chunked ContEval %v", recs), ev.cont.Finish(), want)
	pushed := split.NewContEval(3, total)
	for _, r := range recs {
		pushed.Push(r)
	}
	sameCandidate(t, fmt.Sprintf("Push ContEval %v", recs), pushed.Finish(), want)

	// The record-parallel form: the list cut in two, the second half seeded
	// with the first's histogram and last value.
	cut = min(cut, len(recs))
	below := make([]int64, sc.nclass)
	prev, started := 0.0, cut > 0
	for _, r := range recs[:cut] {
		below[r.Class]++
		prev = r.Value
	}
	ev.cont.Reset(3, total)
	ev.cont.PushChunk(recs[:cut])
	refA := newRefCont(3, total, nil, 0, false)
	for _, r := range recs[:cut] {
		refA.push(r)
	}
	sameCandidate(t, fmt.Sprintf("first chunk %v | %v", recs[:cut], recs[cut:]), ev.cont.Finish(), refA.best)
	ev.cont.ResetSeeded(3, total, below, prev, started)
	ev.cont.PushChunk(recs[cut:])
	refB := newRefCont(3, total, below, prev, started)
	for _, r := range recs[cut:] {
		refB.push(r)
	}
	sameCandidate(t, fmt.Sprintf("seeded chunk %v | %v", recs[:cut], recs[cut:]), ev.cont.Finish(), refB.best)

	// The same values as category codes, enumerated (cardinality up to
	// maxEnum) and greedy.
	card := 1
	for _, r := range recs {
		card = max(card, int(r.Value)+1)
	}
	ct := make(catTable, sc.nclass)
	for j := range ct {
		ct[j] = make([]int64, card)
	}
	for _, r := range recs {
		ct[r.Class][int(r.Value)]++
	}
	for _, maxEnum := range []int{split.MaxEnumCard, 2} {
		ev.cat.Reset(5, card, total, maxEnum)
		ev.cat.PushChunk(recs)
		sameCandidate(t, fmt.Sprintf("CatEval maxEnum %d %v", maxEnum, ct), ev.cat.Finish(), refCat(5, ct, maxEnum))
	}

	// The same values as HIST bins, one bin per value, cut after each bin.
	counts := make([]int64, card*sc.nclass)
	cuts := make([]float64, card-1)
	for b := range cuts {
		cuts[b] = float64(b) + 0.5
	}
	for _, r := range recs {
		counts[int(r.Value)*sc.nclass+int(r.Class)]++
	}
	n := int64(len(recs))
	sameCandidate(t, fmt.Sprintf("ContSearch %v", counts), ev.bins.Best(7, counts, cuts, total, n),
		refBins(7, counts, cuts, total, n))
}

// randomCase draws n records over distinct values and nclass classes.
func randomCase(rng *rand.Rand, n, nclass, distinct int) scorerCase {
	recs := make([]alist.Record, n)
	for i := range recs {
		recs[i] = alist.Record{
			Value: float64(rng.Intn(distinct)),
			Tid:   uint32(i),
			Class: int32(rng.Intn(nclass)),
		}
	}
	alist.SortByValue(recs, nil)
	return scorerCase{nclass: nclass, recs: recs}
}

// pattern builds a case from a class sequence, record i taking value
// values[i].
func pattern(nclass int, values []float64, classes []int32) scorerCase {
	recs := make([]alist.Record, len(values))
	for i := range recs {
		recs[i] = alist.Record{Value: values[i], Tid: uint32(i), Class: classes[i]}
	}
	return scorerCase{nclass: nclass, recs: recs}
}

// TestScorerMatchesFloatSearches holds every scored search to its
// float-only reference on tie-heavy leaves: 2–5 classes, 2–50 records, 1–8
// distinct values, chunked pushes and seeded halves, plus hand-built leaves
// whose candidates tie exactly (mirror-image class sequences, whose gini
// the float arithmetic may round apart either way).
func TestScorerMatchesFloatSearches(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	var ev evaluators
	for nclass := 2; nclass <= 5; nclass++ {
		for n := 2; n <= 50; n++ {
			for distinct := 1; distinct <= 8; distinct++ {
				for trial := 0; trial < 4; trial++ {
					ev.check(t, randomCase(rng, n, nclass, distinct), rng.Intn(n+1), rng)
				}
			}
		}
	}
	seq := func(k int) []float64 {
		v := make([]float64, k)
		for i := range v {
			v[i] = float64(i)
		}
		return v
	}
	for _, c := range []scorerCase{
		pattern(2, seq(4), []int32{0, 1, 1, 0}),
		pattern(2, seq(6), []int32{0, 0, 1, 1, 0, 0}),
		pattern(2, seq(6), []int32{1, 0, 0, 0, 0, 1}),
		pattern(3, seq(6), []int32{0, 1, 2, 2, 1, 0}),
		pattern(3, seq(9), []int32{0, 1, 2, 0, 1, 2, 0, 1, 2}),
		pattern(4, seq(8), []int32{0, 1, 2, 3, 3, 2, 1, 0}),
		pattern(5, seq(10), []int32{0, 1, 2, 3, 4, 4, 3, 2, 1, 0}),
		pattern(2, []float64{0, 0, 1, 1, 2, 2, 3, 3}, []int32{0, 1, 0, 1, 0, 1, 0, 1}),
		pattern(2, seq(7), []int32{0, 1, 0, 1, 0, 1, 0}),
		pattern(3, seq(7), []int32{2, 2, 2, 2, 2, 2, 2}),
		// Two exact ties that float rounding breaks toward the later
		// threshold: the first split's mirror image scores one ulp lower.
		pattern(4, []float64{0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2},
			[]int32{0, 0, 1, 3, 1, 3, 2, 0, 0, 0, 0, 3, 1, 2, 0, 1, 0, 2}),
		pattern(4, []float64{0, 0, 0, 2, 2, 3, 3, 4, 4, 4, 4, 4, 4, 5, 5, 6, 6, 7, 7, 7, 7, 8, 9},
			[]int32{1, 0, 2, 3, 0, 2, 2, 3, 2, 3, 1, 2, 3, 2, 0, 3, 3, 1, 3, 1, 1, 3, 1}),
	} {
		for cut := 0; cut <= len(c.recs); cut++ {
			ev.check(t, c, cut, rng)
		}
	}
}

// TestContEvalPushAllocatesNothing: Push reuses PushChunk's step without a
// heap-allocated one-record chunk.
func TestContEvalPushAllocatesNothing(t *testing.T) {
	ev := split.NewContEval(0, []int64{50, 50})
	i := 0
	if avg := testing.AllocsPerRun(100, func() {
		ev.Push(alist.Record{Value: float64(i), Class: int32(i % 2)})
		i++
	}); avg != 0 {
		t.Fatalf("Push allocates %.1f objects/op, want 0", avg)
	}
}

// FuzzScorerMatchesFloat holds every scored search to its float-only
// reference on fuzzed leaves. Byte 0 picks the classes (2–5), byte 1 the
// distinct values (1–8), byte 2 the seeded cut, and each later byte one
// record: its value and class.
func FuzzScorerMatchesFloat(f *testing.F) {
	f.Add([]byte{0, 3, 2, 0, 9, 17, 1})
	f.Add([]byte{1, 5, 7, 3, 4, 200, 77, 12, 9, 1, 0, 33})
	f.Add([]byte{3, 7, 0, 255, 128, 64, 32, 16, 8, 4, 2, 1, 0, 90, 91})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 || len(data) > 67 {
			return
		}
		nclass := 2 + int(data[0])%4
		distinct := 1 + int(data[1])%8
		recs := make([]alist.Record, len(data)-3)
		for i, b := range data[3:] {
			recs[i] = alist.Record{
				Value: float64(int(b>>3) % distinct),
				Tid:   uint32(i),
				Class: int32(int(b&7) % nclass),
			}
		}
		alist.SortByValue(recs, nil)
		var ev evaluators
		ev.check(t, scorerCase{nclass: nclass, recs: recs}, int(data[2])%(len(recs)+1),
			rand.New(rand.NewSource(int64(data[2]))))
	})
}

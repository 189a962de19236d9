// Package split implements gini-index split evaluation over attribute
// lists, the E step of the paper's E/W/S decomposition.
//
// For a continuous attribute the candidate split points are the mid-points
// between every two consecutive distinct values in the (sorted) attribute
// list; evaluation streams the list once, maintaining Cbelow/Cabove class
// histograms. For a categorical attribute a class×category count matrix is
// gathered in one pass and then either all subsets are enumerated (small
// cardinality) or a greedy subsetting search is used (paper §2.2), exactly
// as in SPRINT.
package split

import (
	"fmt"
	"math"
	"math/bits"
	"strings"

	"repro/internal/alist"
	"repro/internal/dataset"
)

// Gini returns the gini index of a class histogram with total n:
// gini = 1 - Σ (c_j/n)². By convention the gini of an empty set is 0.
func Gini(counts []int64, n int64) float64 {
	if n == 0 {
		return 0
	}
	var s float64
	fn := float64(n)
	for _, c := range counts {
		p := float64(c) / fn
		s += p * p
	}
	return 1 - s
}

// SplitGini returns the weighted gini of a binary partition:
// (nl/n)·gini(left) + (nr/n)·gini(right).
func SplitGini(left, right []int64, nl, nr int64) float64 {
	n := nl + nr
	if n == 0 {
		return 0
	}
	return float64(nl)/float64(n)*Gini(left, nl) + float64(nr)/float64(n)*Gini(right, nr)
}

// CatSet is a set of category codes, used as the left-branch subset of a
// categorical split test (value ∈ set ⇒ left).
type CatSet struct {
	bits []uint64
	card int
}

// NewCatSet creates an empty set over a domain of card categories.
func NewCatSet(card int) CatSet {
	return CatSet{bits: make([]uint64, (card+63)/64), card: card}
}

// Add inserts a category code.
func (s *CatSet) Add(code int32) { s.bits[code/64] |= 1 << uint(code%64) }

// Remove deletes a category code.
func (s *CatSet) Remove(code int32) { s.bits[code/64] &^= 1 << uint(code%64) }

// Has reports membership of a category code.
func (s CatSet) Has(code int32) bool {
	i := int(code / 64)
	if i < 0 || i >= len(s.bits) {
		return false
	}
	return s.bits[i]&(1<<uint(code%64)) != 0
}

// Card returns the domain cardinality the set was created with.
func (s CatSet) Card() int { return s.card }

// Count returns the number of categories in the set.
func (s CatSet) Count() int {
	n := 0
	for _, w := range s.bits {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}

// Clone returns a copy of the set.
func (s CatSet) Clone() CatSet {
	return CatSet{bits: append([]uint64(nil), s.bits...), card: s.card}
}

// Equal reports whether two sets contain the same codes.
func (s CatSet) Equal(o CatSet) bool {
	if len(s.bits) != len(o.bits) {
		return false
	}
	for i := range s.bits {
		if s.bits[i] != o.bits[i] {
			return false
		}
	}
	return true
}

// String renders the set as {c0,c3,...}.
func (s CatSet) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	for c := int32(0); int(c) < s.card; c++ {
		if s.Has(c) {
			if !first {
				b.WriteByte(',')
			}
			first = false
			fmt.Fprintf(&b, "%d", c)
		}
	}
	b.WriteByte('}')
	return b.String()
}

// Candidate describes the best split found for one attribute at one leaf.
type Candidate struct {
	// Attr is the attribute index the candidate splits on.
	Attr int
	// Kind is the attribute kind.
	Kind dataset.Kind
	// Gini is the weighted gini index of the split; lower is better.
	Gini float64
	// Threshold is the continuous split point: value < Threshold ⇒ left.
	Threshold float64
	// Subset is the categorical left-branch subset: value ∈ Subset ⇒ left.
	Subset CatSet
	// NLeft and NRight are the record counts on each side.
	NLeft, NRight int64
	// Valid is false when no split exists (e.g. a single distinct value).
	Valid bool
}

// Better reports whether c is strictly preferable to o under the
// deterministic total order used everywhere: lower gini wins; ties break by
// lower attribute index, then (same attribute, continuous) lower threshold.
// An invalid candidate never beats a valid one.
func (c Candidate) Better(o Candidate) bool {
	if !c.Valid {
		return false
	}
	if !o.Valid {
		return true
	}
	if c.Gini != o.Gini {
		return c.Gini < o.Gini
	}
	if c.Attr != o.Attr {
		return c.Attr < o.Attr
	}
	if c.Kind == dataset.Continuous && o.Kind == dataset.Continuous {
		return c.Threshold < o.Threshold
	}
	return false
}

// GoesLeft applies the candidate's test to an attribute-list record value.
func (c Candidate) GoesLeft(value float64) bool {
	if c.Kind == dataset.Continuous {
		return value < c.Threshold
	}
	return c.Subset.Has(int32(value))
}

// ContEval streams a sorted continuous attribute list and finds the best
// mid-point split. It maintains the Cbelow histogram; Cabove is derived from
// the leaf's total histogram.
type ContEval struct {
	attr    int
	total   []int64
	n       int64
	below   []int64
	above   []int64 // scratch, recomputed per candidate
	nBelow  int64
	prev    float64
	started bool
	best    Candidate
}

// NewContEval creates an evaluator for attribute attr at a leaf whose class
// histogram is total (copied).
func NewContEval(attr int, total []int64) *ContEval {
	e := &ContEval{}
	e.Reset(attr, total)
	return e
}

// Reset re-arms the evaluator for a new (leaf, attribute) unit, reusing its
// histogram buffers. A zero ContEval may be Reset directly, so per-worker
// scratch can embed one by value and evaluate every unit allocation-free.
func (e *ContEval) Reset(attr int, total []int64) {
	e.attr = attr
	e.total = append(e.total[:0], total...)
	e.below = resizeZero(e.below, len(total))
	e.above = resizeZero(e.above, len(total))
	e.n, e.nBelow = 0, 0
	e.prev, e.started = 0, false
	e.best = Candidate{Attr: attr, Kind: dataset.Continuous, Gini: math.Inf(1)}
	for _, c := range e.total {
		e.n += c
	}
}

// NewContEvalSeeded creates an evaluator for one contiguous chunk of a
// sorted attribute list, used by the record-data-parallel scheme: below is
// the class histogram of all records before the chunk, and prev/started
// describe the last value before the chunk so the boundary mid-point is
// evaluated. total is the whole leaf's class histogram.
func NewContEvalSeeded(attr int, total, below []int64, prev float64, started bool) *ContEval {
	e := &ContEval{}
	e.ResetSeeded(attr, total, below, prev, started)
	return e
}

// ResetSeeded is Reset for the record-data-parallel chunk form; see
// NewContEvalSeeded.
func (e *ContEval) ResetSeeded(attr int, total, below []int64, prev float64, started bool) {
	e.Reset(attr, total)
	copy(e.below, below)
	for _, c := range below {
		e.nBelow += c
	}
	e.prev = prev
	e.started = started
}

// Push consumes the next record (records must arrive in sorted order).
func (e *ContEval) Push(r alist.Record) {
	if e.started && r.Value != e.prev {
		e.consider((e.prev + r.Value) / 2)
	}
	e.below[r.Class]++
	e.nBelow++
	e.prev = r.Value
	e.started = true
}

// PushChunk consumes a chunk of records. The loop body repeats Push inline:
// the E scan spends most of its cycles here, and keeping the per-record path
// call-free is measurably faster than dispatching Push per record.
func (e *ContEval) PushChunk(recs []alist.Record) {
	for i := range recs {
		r := recs[i]
		if e.started && r.Value != e.prev {
			e.consider((e.prev + r.Value) / 2)
		}
		e.below[r.Class]++
		e.nBelow++
		e.prev = r.Value
		e.started = true
	}
}

// resizeZero returns s with length n and every element zeroed, reusing the
// backing array when it is large enough.
func resizeZero(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

func (e *ContEval) consider(threshold float64) {
	nl := e.nBelow
	nr := e.n - nl
	if nl == 0 || nr == 0 {
		return
	}
	for j := range e.above {
		e.above[j] = e.total[j] - e.below[j]
	}
	g := SplitGini(e.below, e.above, nl, nr)
	// Thresholds arrive in increasing order, so under the deterministic
	// Better order (lower gini, then lower threshold) a later candidate only
	// wins with strictly lower gini; updating fields in place avoids copying
	// a full Candidate per distinct value.
	if e.best.Valid && g >= e.best.Gini {
		return
	}
	e.best.Gini = g
	e.best.Threshold = threshold
	e.best.NLeft, e.best.NRight = nl, nr
	e.best.Valid = true
}

// Finish returns the best candidate found. If the list had fewer than two
// distinct values the candidate is invalid.
func (e *ContEval) Finish() Candidate {
	return e.best
}

// MaxEnumCard is the default cardinality threshold above which categorical
// split search switches from exhaustive subset enumeration to the greedy
// subsetting algorithm (SPRINT's "if the cardinality is too large a greedy
// subsetting algorithm is used").
const MaxEnumCard = 10

// CatEval streams a categorical attribute list, accumulating the
// class×category count matrix, then searches subsets.
type CatEval struct {
	attr     int
	card     int
	nclasses int
	counts   []int64 // counts[class*card+cat]
	catTot   []int64 // per-category totals
	total    []int64
	n        int64
	maxEnum  int

	// Reusable subset-search scratch, so Finish allocates only when a new
	// best subset is materialized.
	present []int32
	pc      []int64 // present-major class counts, see gather
	left    []int64
	right   []int64
	trial   []int64 // greedy's trial left/right histograms
	inLeft  []bool
}

// NewCatEval creates an evaluator for categorical attribute attr with domain
// cardinality card at a leaf whose class histogram is total. maxEnum
// overrides the enumeration threshold when > 0.
func NewCatEval(attr, card int, total []int64, maxEnum int) *CatEval {
	e := &CatEval{}
	e.Reset(attr, card, total, maxEnum)
	return e
}

// Reset re-arms the evaluator for a new (leaf, attribute) unit, reusing the
// count matrix when the new cardinality and class count fit the old buffers.
// A zero CatEval may be Reset directly.
func (e *CatEval) Reset(attr, card int, total []int64, maxEnum int) {
	if maxEnum <= 0 {
		maxEnum = MaxEnumCard
	}
	e.attr, e.card, e.nclasses, e.maxEnum = attr, card, len(total), maxEnum
	e.counts = resizeZero(e.counts, len(total)*card)
	e.catTot = resizeZero(e.catTot, card)
	e.total = append(e.total[:0], total...)
	e.n = 0
	for _, c := range e.total {
		e.n += c
	}
}

// Push consumes the next record (order irrelevant for categorical lists).
func (e *CatEval) Push(r alist.Record) {
	cat := int32(r.Value)
	e.counts[int(r.Class)*e.card+int(cat)]++
	e.catTot[cat]++
}

// PushChunk consumes a chunk of records (per-record path kept inline, as in
// ContEval.PushChunk).
func (e *CatEval) PushChunk(recs []alist.Record) {
	for i := range recs {
		cat := int(int32(recs[i].Value))
		e.counts[int(recs[i].Class)*e.card+cat]++
		e.catTot[cat]++
	}
}

// AddCount folds n pre-aggregated records of (class, cat) into the count
// matrix. The HIST engine uses it to feed merged histogram cells instead of
// streaming individual records; Finish then runs the same subset search.
func (e *CatEval) AddCount(class, cat int, n int64) {
	if n == 0 {
		return
	}
	e.counts[class*e.card+cat] += n
	e.catTot[cat] += n
}

// Merge folds another evaluator's counts into this one; used by the
// record-data-parallel scheme where each processor gathers the count matrix
// of its own chunk. Both evaluators must describe the same attribute.
func (e *CatEval) Merge(o *CatEval) {
	for i := range e.counts {
		e.counts[i] += o.counts[i]
	}
	for i := range e.catTot {
		e.catTot[i] += o.catTot[i]
	}
}

// Finish searches for the best subset split over the gathered counts.
func (e *CatEval) Finish() Candidate {
	// Gather the categories actually present at this leaf; absent
	// categories are irrelevant to the gini of this node and are left on
	// the right branch deterministically.
	if cap(e.present) < e.card {
		e.present = make([]int32, 0, e.card)
	}
	present := e.present[:0]
	for c := 0; c < e.card; c++ {
		if e.catTot[c] > 0 {
			present = append(present, int32(c))
		}
	}
	e.present = present
	invalid := Candidate{Attr: e.attr, Kind: dataset.Categorical, Gini: math.Inf(1)}
	if len(present) < 2 {
		return invalid
	}
	if len(present) <= e.maxEnum {
		return e.enumerate(present)
	}
	return e.greedy(present)
}

// gather copies the class counts of each present category into the
// present-major scratch pc (pc[i*nclasses+j] is class j of present[i]), so
// every incremental search step below reads one contiguous row, and resets
// the left/right histograms to the empty-left partition. Nothing is
// allocated once the scratch is sized.
func (e *CatEval) gather(present []int32) (pc, left, right []int64) {
	nc := e.nclasses
	e.pc = resizeZero(e.pc, len(present)*nc)
	for i, cat := range present {
		for j := 0; j < nc; j++ {
			e.pc[i*nc+j] = e.counts[j*e.card+int(cat)]
		}
	}
	e.left = resizeZero(e.left, nc)
	if cap(e.right) < nc {
		e.right = make([]int64, nc)
	}
	e.right = e.right[:nc]
	copy(e.right, e.total)
	return e.pc, e.left, e.right
}

// move shifts present category row (its class counts) from right to left
// when in is true, from left to right otherwise.
func move(left, right, row []int64, in bool) {
	if in {
		for j, c := range row {
			left[j] += c
			right[j] -= c
		}
		return
	}
	for j, c := range row {
		left[j] -= c
		right[j] += c
	}
}

// subset materializes the left-branch set: the present categories whose
// index i satisfies member.
func (e *CatEval) subset(present []int32, member func(i int) bool) CatSet {
	set := NewCatSet(e.card)
	for i, cat := range present {
		if member(i) {
			set.Add(cat)
		}
	}
	return set
}

// enumerate tries every distinct bipartition of the present categories.
// Masks with bit 0 set cover each unordered bipartition exactly once. They
// are walked in Gray-code order — step k visits mask 1|g<<1 with
// g = k^(k>>1) — so consecutive masks differ in one category, and each step
// moves that category between the left and right histograms at O(classes)
// cost instead of re-summing every category. The histograms are integer
// sums, so every mask's gini is bit-identical to a from-scratch sum. The
// winner is the lowest gini, ties going to the smallest mask, exactly as
// the ascending-mask scan's strict comparison chose.
func (e *CatEval) enumerate(present []int32) Candidate {
	best := Candidate{Attr: e.attr, Kind: dataset.Categorical, Gini: math.Inf(1)}
	m := len(present)
	nc := e.nclasses
	pc, left, right := e.gather(present)
	move(left, right, pc[:nc], true)
	nl := e.catTot[present[0]]
	full := uint64(1)<<uint(m) - 1
	var bestMask uint64
	for k := uint64(0); k < 1<<uint(m-1); k++ {
		if k > 0 {
			i := bits.TrailingZeros64(k) + 1
			in := (k^k>>1)&(1<<uint(i-1)) != 0
			move(left, right, pc[i*nc:(i+1)*nc], in)
			if in {
				nl += e.catTot[present[i]]
			} else {
				nl -= e.catTot[present[i]]
			}
		}
		mask := 1 | (k^k>>1)<<1
		nr := e.n - nl
		if mask == full || nl == 0 || nr == 0 {
			continue // all present on the left ⇒ empty right
		}
		g := SplitGini(left, right, nl, nr)
		if best.Valid && (g > best.Gini || g == best.Gini && mask > bestMask) {
			continue
		}
		best.Gini, bestMask = g, mask
		best.NLeft, best.NRight = nl, nr
		best.Valid = true
	}
	if best.Valid {
		best.Subset = e.subset(present, func(i int) bool { return bestMask&(1<<uint(i)) != 0 })
	}
	return best
}

// greedy grows the left subset one category at a time, always adding the
// category that most reduces the split gini, stopping when no addition
// improves it (SPRINT's greedy subsetting). Each trial scores the current
// left histogram plus one category, so a trial costs O(classes); ties go
// to the lowest present index because the comparison is strict.
func (e *CatEval) greedy(present []int32) Candidate {
	if cap(e.inLeft) < len(present) {
		e.inLeft = make([]bool, len(present))
	}
	inLeft := e.inLeft[:len(present)]
	for i := range inLeft {
		inLeft[i] = false
	}
	e.inLeft = inLeft
	nc := e.nclasses
	pc, left, right := e.gather(present)
	e.trial = resizeZero(e.trial, 2*nc)
	tl, tr := e.trial[:nc], e.trial[nc:]
	best := Candidate{Attr: e.attr, Kind: dataset.Categorical, Gini: math.Inf(1)}
	var nl int64
	for {
		improved := -1
		roundBest := best.Gini
		var roundNL int64
		for i, cat := range present {
			if inLeft[i] {
				continue
			}
			row := pc[i*nc : (i+1)*nc]
			for j, c := range row {
				tl[j] = left[j] + c
				tr[j] = right[j] - c
			}
			tnl := nl + e.catTot[cat]
			tnr := e.n - tnl
			if tnl == 0 || tnr == 0 {
				continue
			}
			if g := SplitGini(tl, tr, tnl, tnr); g < roundBest {
				roundBest, roundNL, improved = g, tnl, i
			}
		}
		if improved < 0 {
			break
		}
		inLeft[improved] = true
		move(left, right, pc[improved*nc:(improved+1)*nc], true)
		nl = roundNL
		best.Gini, best.NLeft, best.NRight, best.Valid = roundBest, nl, e.n-nl, true
	}
	if best.Valid {
		best.Subset = e.subset(present, func(i int) bool { return inLeft[i] })
	}
	return best
}

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

// Scorer holds one binary partition of a leaf's records, the class
// histograms Left and Right, and ranks candidate partitions without a
// division per class. Every split search (ContEval, CatEval's enumeration
// and greedy subsetting, and the HIST boundary search) moves records or
// whole categories between the two sides and asks the same scorer about
// each candidate.
//
// The split gini of a partition with nl records on the left and nr on the
// right is 1 − Q/n, with n = nl+nr and
//
//	Q = Sl/nl + Sr/nr = (Sl·nr + Sr·nl) / (nl·nr),
//
// where Sl = Σ Left[j]² and Sr = Σ Right[j]². The scorer keeps Sl and Sr
// exactly in int64: moving one class-c record left adds 2·Left[c]+1 to Sl
// and takes 2·Right[c]−1 from Sr, O(1) per record, and moving a category's
// class-count row costs O(classes). Sl, Sr ≤ n², so the sums fit in an
// int64 for n ≤ 3,037,000,499 rows (⌊√(2⁶³−1)⌋); every int64 count below
// that bound converts to float64 within one rounding, and every product of
// them is far inside float64 range.
//
// Q only screens candidates out. The winner, its Gini bits and every tie
// are still decided by the float SplitGini and each search's own rule, so
// the trees are exactly those a float-only search grows. Worse rejects a
// candidate only when its exact gini exceeds the best's by more than
// margin = 2ε + 12u, where u = 2⁻⁵³ is the float64 unit roundoff and ε
// bounds SplitGini's own error:
//
//   - SplitGini's error. Gini forms k quotients c/n (one rounding each),
//     squares them (one more), adds the k squares (k−1 more) and takes the
//     sum from 1 (one more): with every p² ≤ 1 and Σp² ≤ 1 its result is
//     within (k+3)u of the exact gini of k classes. SplitGini weighs the
//     two by nl/n and nr/n and adds them (three roundings on terms at
//     most 1), so ε = (k+6)u, to first order in u.
//   - Worse's error. The candidate test compares fl(Sl·nr + Sr·nl),
//     within 3u relative of its exact value (two conversions of Sl and Sr
//     rounded at most once each, two products and a sum), with fl(floor ·
//     fl(nl·nr)), within 2u relative. floor is the best's Q, formed once by
//     one more division (5u relative), less n·margin (one more rounding).
//     Q ≤ n for every partition, so a rejected candidate's exact Q is
//     below the best's exact Q − n·margin + 12u·n: its exact gini exceeds
//     the best's by more than margin − 12u = 2ε.
//
// A candidate whose exact gini exceeds the best's by more than 2ε has a
// float gini strictly above the best's float gini, which every search
// rule rejects. The scorer pads the first-order bound eightfold, to
// 8·(2k+24)u, which also covers the second-order terms left out above;
// for two classes that is under 1e-14 of gini, so only candidates that tie
// or nearly tie the best are scored in float.
type Scorer struct {
	// Left and Right are the class histograms of the two sides.
	Left, Right []int64
	sl, sr      int64   // Σ Left[j]², Σ Right[j]²
	slack       float64 // n·margin, in units of Q
	floor       float64 // best's Q − slack; −Inf until a best is kept
}

// Reset puts every record of a leaf whose class histogram is total on the
// right and forgets the best, reusing the histograms' backing arrays.
func (s *Scorer) Reset(total []int64) {
	s.Left = ResizeZero(s.Left, len(total))
	s.Right = append(s.Right[:0], total...)
	var n int64
	s.sl, s.sr = 0, 0
	for _, c := range total {
		n += c
		s.sr += c * c
	}
	s.slack = float64(n) * 16 * float64(len(total)+12) * 0x1p-53
	s.floor = math.Inf(-1)
}

// addOne returns the squared sums after one record moves left from a class
// with l records on the left and r on the right. ContEval runs it per
// record on its scorer's sums.
func addOne(sl, sr, l, r int64) (int64, int64) {
	return sl + 2*l + 1, sr - (2*r - 1)
}

// Move shifts a class-count row (one category's records) from the right to
// the left when in is true, from the left to the right otherwise.
func (s *Scorer) Move(row []int64, in bool) {
	left, right := s.Left[:len(row)], s.Right[:len(row)]
	sign := int64(1)
	if !in {
		sign = -1
	}
	var dl, dr int64
	for j, c := range row {
		c *= sign
		l, r := left[j], right[j]
		// (l+c)² − l² = c·(2l+c); r² − (r−c)² = c·(2r−c).
		dl += c * (2*l + c)
		dr += c * (2*r - c)
		left[j], right[j] = l+c, r-c
	}
	s.sl += dl
	s.sr -= dr
}

// Worse reports whether the current partition, with nl records on the left
// and nr on the right, is certainly worse than the best kept: its float
// gini would exceed the best's. It divides nothing.
func (s *Scorer) Worse(nl, nr int64) bool {
	return worse(s.sl, s.sr, nl, nr, s.floor)
}

// worse is Worse on explicit squared sums and floor.
func worse(sl, sr, nl, nr int64, floor float64) bool {
	fl, fr := float64(nl), float64(nr)
	return float64(sl)*fr+float64(sr)*fl < floor*(fl*fr)
}

// Gini returns the current partition's float SplitGini.
func (s *Scorer) Gini(nl, nr int64) float64 {
	return SplitGini(s.Left, s.Right, nl, nr)
}

// Keep makes the current partition the best that later candidates are
// screened against.
func (s *Scorer) Keep(nl, nr int64) {
	fl, fr := float64(nl), float64(nr)
	s.floor = (float64(s.sl)*fr+float64(s.sr)*fl)/(fl*fr) - s.slack
}

// ResizeZero returns s with length n and every element zeroed, reusing the
// backing array when it is large enough.
func ResizeZero(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// ContEval streams a sorted continuous attribute list and finds the best
// mid-point split. Its scorer's Left is the Cbelow histogram and its Right
// the Cabove histogram, both kept per record.
type ContEval struct {
	attr    int
	sc      Scorer
	n       int64
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
	e.sc.Reset(total)
	e.n, e.nBelow = 0, 0
	e.prev, e.started = 0, false
	e.best = Candidate{Attr: attr, Kind: dataset.Continuous, Gini: math.Inf(1)}
	for _, c := range total {
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
	e.sc.Move(below, true)
	for _, c := range below {
		e.nBelow += c
	}
	e.prev = prev
	e.started = started
}

// Push consumes the next record (records must arrive in sorted order).
func (e *ContEval) Push(r alist.Record) {
	e.PushChunk([]alist.Record{r})
}

// PushChunk consumes a chunk of records. Each distinct value closes a
// candidate, the split below it; the scorer screens it out in O(1) unless
// it can beat the best, and only then is its float gini computed. The loop
// runs the scorer's Worse and Add steps on locals, which stay in registers,
// and writes them back before offer reads them.
func (e *ContEval) PushChunk(recs []alist.Record) {
	s := &e.sc
	left, right := s.Left, s.Right
	sl, sr, floor := s.sl, s.sr, s.floor
	nl, n, prev, started := e.nBelow, e.n, e.prev, e.started
	for i := range recs {
		v, c := recs[i].Value, recs[i].Class
		if started && v != prev && !worse(sl, sr, nl, n-nl, floor) {
			s.sl, s.sr, e.nBelow, e.prev = sl, sr, nl, prev
			e.offer(v)
			floor = s.floor
		}
		l, r := left[c], right[c]
		sl, sr = addOne(sl, sr, l, r)
		left[c], right[c] = l+1, r-1
		nl++
		prev, started = v, true
	}
	s.sl, s.sr = sl, sr
	e.nBelow, e.prev, e.started = nl, prev, started
}

// offer scores the split between e.prev and the next distinct value v in
// float and keeps it if it wins. Thresholds arrive in increasing order, so
// under the deterministic Better order (lower gini, then lower threshold) a
// later candidate only wins with strictly lower gini; updating fields in
// place avoids copying a full Candidate per distinct value.
func (e *ContEval) offer(v float64) {
	nl := e.nBelow
	nr := e.n - nl
	if nl == 0 || nr == 0 {
		return
	}
	g := e.sc.Gini(nl, nr)
	if e.best.Valid && g >= e.best.Gini {
		return
	}
	e.sc.Keep(nl, nr)
	// The mid-point rounds down to prev when the two values are adjacent
	// doubles and overflows for values near the float64 limit; v itself
	// then separates the two sides exactly (value < v ⇒ left).
	m := (e.prev + v) / 2
	if !(e.prev < m && m <= v) {
		m = v
	}
	e.best.Gini = g
	e.best.Threshold = m
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
	sc      Scorer
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
	e.counts = ResizeZero(e.counts, len(total)*card)
	e.catTot = ResizeZero(e.catTot, card)
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
// the scorer to the empty-left partition. Nothing is allocated once the
// scratch is sized.
func (e *CatEval) gather(present []int32) []int64 {
	nc := e.nclasses
	e.pc = ResizeZero(e.pc, len(present)*nc)
	for i, cat := range present {
		for j := 0; j < nc; j++ {
			e.pc[i*nc+j] = e.counts[j*e.card+int(cat)]
		}
	}
	e.sc.Reset(e.total)
	return e.pc
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
// moves that category between the scorer's sides at O(classes) cost
// instead of re-summing every category. The histograms are integer sums,
// so every mask's gini is bit-identical to a from-scratch sum. The winner
// is the lowest gini, ties going to the smallest mask, exactly as the
// ascending-mask scan's strict comparison chose.
func (e *CatEval) enumerate(present []int32) Candidate {
	best := Candidate{Attr: e.attr, Kind: dataset.Categorical, Gini: math.Inf(1)}
	m := len(present)
	nc := e.nclasses
	pc := e.gather(present)
	sc := &e.sc
	sc.Move(pc[:nc], true)
	nl := e.catTot[present[0]]
	full := uint64(1)<<uint(m) - 1
	var bestMask uint64
	for k := uint64(0); k < 1<<uint(m-1); k++ {
		if k > 0 {
			i := bits.TrailingZeros64(k) + 1
			in := (k^k>>1)&(1<<uint(i-1)) != 0
			sc.Move(pc[i*nc:(i+1)*nc], in)
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
		if sc.Worse(nl, nr) {
			continue
		}
		g := sc.Gini(nl, nr)
		if best.Valid && (g > best.Gini || g == best.Gini && mask > bestMask) {
			continue
		}
		sc.Keep(nl, nr)
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
// improves it (SPRINT's greedy subsetting). Each trial moves one category
// left, asks the scorer, and moves it back, so a trial costs O(classes);
// ties go to the lowest present index because the comparison is strict.
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
	pc := e.gather(present)
	sc := &e.sc
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
			tnl := nl + e.catTot[cat]
			tnr := e.n - tnl
			if tnl == 0 || tnr == 0 {
				continue
			}
			row := pc[i*nc : (i+1)*nc]
			sc.Move(row, true)
			if !sc.Worse(tnl, tnr) {
				if g := sc.Gini(tnl, tnr); g < roundBest {
					sc.Keep(tnl, tnr)
					roundBest, roundNL, improved = g, tnl, i
				}
			}
			sc.Move(row, false)
		}
		if improved < 0 {
			break
		}
		inLeft[improved] = true
		sc.Move(pc[improved*nc:(improved+1)*nc], true)
		nl = roundNL
		best.Gini, best.NLeft, best.NRight, best.Valid = roundBest, nl, e.n-nl, true
	}
	if best.Valid {
		best.Subset = e.subset(present, func(i int) bool { return inLeft[i] })
	}
	return best
}

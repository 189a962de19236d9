// Package hist implements the data layer of the approximate
// histogram-binned engine (parclass.Hist): a one-pass quantile-sketch
// binning of every continuous attribute into at most MaxBins fixed bins
// (categorical attributes use their category codes directly), per-node
// class×bin histogram accumulation over a row-index view, best-split
// search over bin boundaries, and stable in-place partitioning of the
// row-index permutation — the design of "A Communication-Efficient
// Parallel Algorithm for Decision Tree" (Meng, Ke et al.), which replaces
// SPRINT's sorted attribute lists and per-level list rewriting entirely.
//
// Everything here is deterministic: the binning samples on a fixed stride,
// histograms are integer sums (associative and commutative, so any worker
// interleaving merges to the same counts), and the partition is stable, so
// the engine produces byte-identical trees for every processor count.
package hist

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/dataset"
	"repro/internal/split"
)

// MaxBinsLimit is the largest permitted bin count: bin indices are stored
// as uint16, so a column may map to at most 65536 distinct bins.
const MaxBinsLimit = 1 << 16

// DefaultSampleCap bounds the number of values sampled per attribute for
// the quantile sketch. 64Ki doubles comfortably past 256 bins' resolution
// while keeping the per-attribute sort of the binning pass O(1) in the
// dataset size.
const DefaultSampleCap = 1 << 16

// Matrix is the binned image of a training table: one uint16 bin index per
// (attribute, row), plus the cut points that define the bins. It is built
// once per training run (the engine's "bin" phase) and is immutable
// afterwards; the per-node state lives entirely in the row-index
// permutation and the histogram arenas, both owned by the engine.
type Matrix struct {
	// NClass is the number of class labels.
	NClass int
	// NRows is the number of training tuples.
	NRows int
	// Class is the table's class column (shared, read-only).
	Class []int32
	// Cols[a][row] is the bin index of attribute a at row.
	Cols [][]uint16
	// NBins[a] is the number of bins of attribute a (categorical: the
	// domain cardinality; continuous: len(Cuts[a])+1).
	NBins []int
	// Cuts[a] holds the ascending cut points of continuous attribute a
	// (nil for categorical). A value v falls in bin i iff i is the number
	// of cuts <= v, so the split "value < Cuts[k]" keeps exactly bins
	// 0..k on the left.
	Cuts [][]float64
	// Off[a] is the offset (in int64 cells) of attribute a's histogram in
	// a per-node arena of Stride cells; filled by FinishLayout.
	Off []int
	// Stride is the per-node arena size in cells: Σ_a NBins[a]×NClass.
	Stride int
}

// NewMatrix allocates the binned image's shell for a table with the given
// schema and class column. Columns are filled by BinContinuous /
// BinCategorical (one call per attribute, safe to run concurrently since
// each touches only its own column), then FinishLayout computes the arena
// layout.
func NewMatrix(schema *dataset.Schema, class []int32) *Matrix {
	nattr := schema.NumAttrs()
	return &Matrix{
		NClass: schema.NumClasses(),
		NRows:  len(class),
		Class:  class,
		Cols:   make([][]uint16, nattr),
		NBins:  make([]int, nattr),
		Cuts:   make([][]float64, nattr),
		Off:    make([]int, nattr),
	}
}

// QuantileCuts computes at most maxBins-1 ascending, distinct cut points
// from a deterministic stride sample of col. sample is reusable scratch
// (pass &s with s possibly nil). The cuts are actual data values taken at
// the sample's quantiles, deduplicated, so heavily repeated values
// collapse into one bin instead of wasting several.
func QuantileCuts(col []float64, maxBins, sampleCap int, sample *[]float64) []float64 {
	if sampleCap <= 0 {
		sampleCap = DefaultSampleCap
	}
	n := len(col)
	s := (*sample)[:0]
	if n <= sampleCap {
		s = append(s, col...)
	} else {
		// Fixed-stride sampling: index i*n/sampleCap is deterministic and
		// touches the column in increasing address order.
		for i := 0; i < sampleCap; i++ {
			s = append(s, col[i*n/sampleCap])
		}
	}
	*sample = s
	sort.Float64s(s)
	cuts := make([]float64, 0, maxBins-1)
	for b := 1; b < maxBins; b++ {
		c := s[b*len(s)/maxBins]
		if len(cuts) == 0 || c > cuts[len(cuts)-1] {
			cuts = append(cuts, c)
		}
	}
	// The lowest sampled value can never be a useful cut (nothing falls
	// strictly below it in the sample); drop it so a constant column maps
	// to a single bin.
	if len(cuts) > 0 && cuts[0] <= s[0] {
		cuts = cuts[1:]
	}
	return cuts
}

// BinContinuous computes quantile cuts for continuous attribute a over col
// and fills its bin column. sample is reusable scratch shared across calls
// by one worker.
func (m *Matrix) BinContinuous(a int, col []float64, maxBins int, sample *[]float64) {
	cuts := QuantileCuts(col, maxBins, DefaultSampleCap, sample)
	bins := make([]uint16, len(col))
	for i, v := range col {
		bins[i] = uint16(binOf(cuts, v))
	}
	m.Cuts[a] = cuts
	m.NBins[a] = len(cuts) + 1
	m.Cols[a] = bins
}

// binOf returns the bin of v: the number of cuts <= v.
func binOf(cuts []float64, v float64) int {
	lo, hi := 0, len(cuts)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if cuts[mid] <= v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// BinCategorical fills categorical attribute a's bin column with the
// category codes themselves (bin b = category b).
func (m *Matrix) BinCategorical(a int, col []int32, card int) error {
	if card > MaxBinsLimit {
		return fmt.Errorf("hist: categorical attribute %d has cardinality %d > %d bins", a, card, MaxBinsLimit)
	}
	bins := make([]uint16, len(col))
	for i, c := range col {
		bins[i] = uint16(c)
	}
	m.Cuts[a] = nil
	m.NBins[a] = card
	m.Cols[a] = bins
	return nil
}

// FinishLayout computes the per-node arena layout (Off, Stride) after
// every attribute has been binned.
func (m *Matrix) FinishLayout() {
	off := 0
	for a := range m.NBins {
		m.Off[a] = off
		off += m.NBins[a] * m.NClass
	}
	m.Stride = off
}

// Cell returns attribute a's histogram slice within a per-node arena.
func (m *Matrix) Cell(arena []int64, a int) []int64 {
	return arena[m.Off[a] : m.Off[a]+m.NBins[a]*m.NClass]
}

// Accumulate adds the class counts of rows idx[lo:hi] to attribute a's
// histogram dst (layout dst[bin*NClass+class]). This is the engine's
// steady-state inner loop; it allocates nothing.
func (m *Matrix) Accumulate(dst []int64, a int, idx []uint32, lo, hi int) {
	col := m.Cols[a]
	cls := m.Class
	nc := m.NClass
	if nc == 2 {
		// The synthetic workloads and most real ones are binary; lifting
		// the multiply out of the loop is worth a special case.
		for _, r := range idx[lo:hi] {
			dst[int(col[r])*2+int(cls[r])]++
		}
		return
	}
	for _, r := range idx[lo:hi] {
		dst[int(col[r])*nc+int(cls[r])]++
	}
}

// ContSearch finds the best boundary split of a binned continuous
// attribute. It is reusable scratch: a zero value works, and repeated
// calls allocate nothing once the histograms are sized.
type ContSearch struct {
	sc split.Scorer
}

// Best scans the bin histogram counts (layout counts[bin*nclass+class]) of
// one node and returns the best split among the len(cuts) bin boundaries.
// total is the node's class histogram and n its tuple count. The returned
// candidate is an ordinary continuous split (value < Threshold ⇒ left), so
// HIST trees serialize and predict exactly like exact-engine trees.
func (s *ContSearch) Best(attr int, counts []int64, cuts []float64, total []int64, n int64) split.Candidate {
	nclass := len(total)
	sc := &s.sc
	sc.Reset(total)
	best := split.Candidate{Attr: attr, Kind: dataset.Continuous, Gini: math.Inf(1)}
	var nBelow int64
	for k := range cuts {
		// Bins 0..k lie strictly below cuts[k]; fold bin k in and test the
		// boundary after it.
		row := counts[k*nclass : (k+1)*nclass]
		var nb int64
		for _, c := range row {
			nb += c
		}
		if nb == 0 {
			// An empty bin's boundary splits the rows exactly as the
			// previous boundary did, and a tie never wins.
			continue
		}
		sc.Move(row, true)
		nBelow += nb
		if nBelow >= n {
			break // every row lies below: no later boundary splits
		}
		nl := nBelow
		nr := n - nBelow
		if sc.Worse(nl, nr) {
			continue
		}
		g := sc.Gini(nl, nr)
		// Boundaries arrive in increasing threshold order, so under the
		// deterministic Better order a later candidate only wins with
		// strictly lower gini (same in-place update as split.ContEval).
		if best.Valid && g >= best.Gini {
			continue
		}
		sc.Keep(nl, nr)
		best.Gini = g
		best.Threshold = cuts[k]
		best.NLeft, best.NRight = nl, nr
		best.Valid = true
	}
	return best
}

// LeftBins materializes a winning candidate's per-bin routing table for
// attribute a: leftBin[b] reports whether bin b descends to the left
// child. For a continuous winner the threshold is one of the attribute's
// cut values; for a categorical winner the subset is consulted directly.
func (m *Matrix) LeftBins(c split.Candidate) []bool {
	nb := m.NBins[c.Attr]
	leftBin := make([]bool, nb)
	if c.Kind == dataset.Continuous {
		// Threshold is cuts[k] verbatim, so SearchFloat64s lands on k;
		// bins 0..k hold exactly the values < cuts[k].
		k := sort.SearchFloat64s(m.Cuts[c.Attr], c.Threshold)
		for b := 0; b <= k && b < nb; b++ {
			leftBin[b] = true
		}
		return leftBin
	}
	for b := 0; b < nb; b++ {
		leftBin[b] = c.Subset.Has(int32(b))
	}
	return leftBin
}

// PartitionStable stably partitions idx[lo:hi] in place by attribute a's
// routing table: rows whose bin maps left are compacted to the front (in
// order), the rest follow (in order). buf is caller scratch of at least
// hi-lo entries for staging the right side. Returns the left count.
//
// Stability is what makes HIST trees independent of the processor count:
// every node's row range stays in ascending original-row order, so the
// histograms — and therefore every downstream split — are reproduced
// exactly no matter how the work was sliced.
func (m *Matrix) PartitionStable(a int, idx []uint32, lo, hi int, leftBin []bool, buf []uint32) int {
	col := m.Cols[a]
	w := lo
	nr := 0
	for i := lo; i < hi; i++ {
		r := idx[i]
		if leftBin[col[r]] {
			idx[w] = r
			w++
		} else {
			buf[nr] = r
			nr++
		}
	}
	copy(idx[w:hi], buf[:nr])
	return w - lo
}

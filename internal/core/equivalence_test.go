package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/alist"
	"repro/internal/probe"
)

// splitShape decides the destination of the i-th record of n.
type splitShape struct {
	name string
	left func(i, n int, rng *rand.Rand) bool
}

// flipAt sends records before position k left and the rest right: one
// destination flip, which lands at a staging-buffer edge when k is near
// alist.AppenderChunk.
func flipAt(name string, k int) splitShape {
	return splitShape{name, func(i, n int, rng *rand.Rand) bool { return i < k }}
}

// shortRuns alternates sides in runs of 1–3 records.
func shortRuns() splitShape {
	left, runLeft := true, 0
	return splitShape{"runs1to3", func(i, n int, rng *rand.Rand) bool {
		if runLeft == 0 {
			left, runLeft = !left, 1+rng.Intn(3)
		}
		runLeft--
		return left
	}}
}

var alternating = splitShape{"alternating", func(i, n int, rng *rand.Rand) bool { return i%2 == 0 }}

// oddChunkStore re-delivers every Scan of the wrapped store in chunks whose
// sizes cycle through sizes, so a split kernel sees chunk edges away from
// the store's and the appenders' powers of two.
type oddChunkStore struct {
	alist.Store
	sizes []int
}

func (s oddChunkStore) Scan(attr, slot int, off int64, n int, fn func([]alist.Record) error) error {
	k := 0
	return s.Store.Scan(attr, slot, off, n, func(recs []alist.Record) error {
		for len(recs) > 0 {
			c := min(len(recs), s.sizes[k%len(s.sizes)])
			k++
			if err := fn(recs[:c]); err != nil {
				return err
			}
			recs = recs[c:]
		}
		return nil
	})
}

// TestSplitKernelMatchesPerRecordReference is the cross-kernel equivalence
// property: the branch-free split kernel (scratch.splitPartition, staging
// in the appenders' buffers, raw-bit probe access, branch-free relabeling)
// must produce byte-identical child lists to a naive per-record reference
// (interface Left/Remap calls, per-record Append), for every probe design,
// both storage backends and file-store scans in odd-sized chunks, across
// shapes from fully alternating to a single run, with destination flips at
// the staging buffer's edges.
func TestSplitKernelMatchesPerRecordReference(t *testing.T) {
	kinds := []probe.Kind{probe.GlobalBit, probe.LeafHash, probe.LeafRelabel}
	c := alist.AppenderChunk
	shapes := []func() splitShape{
		func() splitShape {
			return splitShape{"random", func(i, n int, rng *rand.Rand) bool { return rng.Intn(2) == 0 }}
		},
		func() splitShape { return alternating },
		func() splitShape { return splitShape{"allLeft", func(i, n int, rng *rand.Rand) bool { return true }} },
		func() splitShape { return splitShape{"halves", func(i, n int, rng *rand.Rand) bool { return i < n/2 }} },
		func() splitShape {
			return splitShape{"longRuns", func(i, n int, rng *rand.Rand) bool { return (i/97)%2 == 0 }}
		},
		shortRuns,
		func() splitShape { return flipAt("flipAtChunk-1", c-1) },
		func() splitShape { return flipAt("flipAtChunk", c) },
		func() splitShape { return flipAt("flipAtChunk+1", c+1) },
	}
	for _, kind := range kinds {
		for _, storage := range []string{"mem", "disk", "diskOddChunks"} {
			for _, mk := range shapes {
				shape := mk()
				t.Run(fmt.Sprintf("%v/%s/%s", kind, storage, shape.name), func(t *testing.T) {
					runSplitKernelCase(t, kind, storage, shape.left)
				})
			}
		}
	}
}

func runSplitKernelCase(t *testing.T, kind probe.Kind, storage string,
	leftOf func(i, n int, rng *rand.Rand) bool) {
	t.Helper()
	const n = 9000 // > 2×AppenderChunk so the bulk bypass path is exercised
	rng := rand.New(rand.NewSource(int64(kind)*1000 + int64(n)))

	// A sorted continuous attribute list with duplicate values and a random
	// tid permutation, as after the setup sort.
	recs := make([]alist.Record, n)
	perm := rng.Perm(n)
	for i := range recs {
		recs[i] = alist.Record{
			Value: float64(rng.Intn(n / 3)),
			Tid:   uint32(perm[i]),
			Class: int32(rng.Intn(3)),
		}
	}
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].Value != recs[j].Value {
			return recs[i].Value < recs[j].Value
		}
		return recs[i].Tid < recs[j].Tid
	})

	// Destinations keyed by scan position; the probe is keyed by tid.
	left := make([]bool, n)
	var nl, nr int64
	for i := range left {
		left[i] = leftOf(i, n, rng)
		if left[i] {
			nl++
		} else {
			nr++
		}
	}
	fac, err := probe.NewFactory(kind, n)
	if err != nil {
		t.Fatal(err)
	}
	prb := fac.ForLeaf(nl, nr)
	for i, r := range recs {
		prb.Set(r.Tid, left[i])
	}
	prb.Seal()

	// Reference child lists, built per record with interface calls only.
	var refL, refR []alist.Record
	for _, r := range recs {
		out := r
		out.Tid = prb.Remap(r.Tid)
		if prb.Left(r.Tid) {
			refL = append(refL, out)
		} else {
			refR = append(refR, out)
		}
	}

	// Kernel child lists, through a real store.
	var st alist.Store = alist.NewMemStore(1, 2)
	if storage != "mem" {
		fs, err := alist.NewFileStore(t.TempDir(), 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		st = fs
	}
	if storage == "diskOddChunks" {
		st = oddChunkStore{st, []int{1, 7, alist.AppenderChunk - 1, 3, alist.AppenderChunk + 1, 13}}
	}
	defer st.Close()
	if _, err := st.Reserve(0, 0, n); err != nil {
		t.Fatal(err)
	}
	if err := st.WriteAt(0, 0, 0, recs); err != nil {
		t.Fatal(err)
	}
	offL, err := st.Reserve(0, 1, int(nl))
	if err != nil {
		t.Fatal(err)
	}
	offR, err := st.Reserve(0, 1, int(nr))
	if err != nil {
		t.Fatal(err)
	}

	sc := &scratch{}
	sc.splitScan = sc.splitPartition
	sc.apL.Reset(st, 0, 1, offL, int(nl))
	sc.apR.Reset(st, 0, 1, offR, int(nr))
	sc.useL, sc.useR = true, true
	sc.armProbe(prb)
	if err := st.Scan(0, 0, 0, n, sc.splitScan); err != nil {
		t.Fatal(err)
	}
	if err := sc.apL.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sc.apR.Close(); err != nil {
		t.Fatal(err)
	}

	check := func(side string, off int64, want []alist.Record) {
		got := make([]alist.Record, 0, len(want))
		if err := st.Scan(0, 1, off, len(want), func(chunk []alist.Record) error {
			got = append(got, chunk...)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d records, want %d", side, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s record %d: got %+v, want %+v", side, i, got[i], want[i])
			}
		}
	}
	check("left", offL, refL)
	check("right", offR, refR)
}

// TestSplitKernelDropsTerminalChildren: records routed to a disarmed side
// (pure child, no storage) must be skipped without disturbing the other
// side, whichever side is terminal and whether destinations are random or
// flip at every record.
func TestSplitKernelDropsTerminalChildren(t *testing.T) {
	random := splitShape{"random", func(i, n int, rng *rand.Rand) bool { return rng.Intn(3) > 0 }}
	for _, shape := range []splitShape{random, alternating} {
		for _, keepLeft := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/keepLeft=%v", shape.name, keepLeft), func(t *testing.T) {
				runDropTerminalCase(t, shape, keepLeft)
			})
		}
	}
}

func runDropTerminalCase(t *testing.T, shape splitShape, keepLeft bool) {
	const n = 5000
	rng := rand.New(rand.NewSource(99))
	recs := make([]alist.Record, n)
	for i := range recs {
		recs[i] = alist.Record{Value: float64(i), Tid: uint32(i), Class: int32(rng.Intn(2))}
	}
	fac, _ := probe.NewFactory(probe.GlobalBit, n)
	var nl int64
	left := make([]bool, n)
	for i := range left {
		left[i] = shape.left(i, n, rng)
		if left[i] {
			nl++
		}
	}
	prb := fac.ForLeaf(nl, int64(n)-nl)
	for i, r := range recs {
		prb.Set(r.Tid, left[i])
	}
	prb.Seal()
	nkeep := nl
	if !keepLeft {
		nkeep = n - nl
	}

	st := alist.NewMemStore(1, 2)
	if _, err := st.Reserve(0, 0, n); err != nil {
		t.Fatal(err)
	}
	if err := st.WriteAt(0, 0, 0, recs); err != nil {
		t.Fatal(err)
	}
	off, err := st.Reserve(0, 1, int(nkeep))
	if err != nil {
		t.Fatal(err)
	}

	sc := &scratch{}
	sc.splitScan = sc.splitPartition
	ap := &sc.apL
	if !keepLeft {
		ap = &sc.apR
	}
	ap.Reset(st, 0, 1, off, int(nkeep))
	sc.useL, sc.useR = keepLeft, !keepLeft // the other child is terminal
	sc.armProbe(prb)
	if err := st.Scan(0, 0, 0, n, sc.splitScan); err != nil {
		t.Fatal(err)
	}
	if err := ap.Close(); err != nil {
		t.Fatal(err)
	}
	i := 0
	if err := st.Scan(0, 1, off, int(nkeep), func(chunk []alist.Record) error {
		for _, r := range chunk {
			if left[r.Tid] != keepLeft {
				t.Fatalf("tid %d of the terminal child leaked into the kept one", r.Tid)
			}
			i++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if int64(i) != nkeep {
		t.Fatalf("kept child holds %d records, want %d", i, nkeep)
	}
}

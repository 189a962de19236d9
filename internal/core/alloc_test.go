package core

import (
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"repro/internal/alist"
	"repro/internal/probe"
)

// allocFixture holds a warmed-up MemStore work-unit setup: a sorted list in
// slot 0, a sealed probe, and a scratch whose buffers have been through one
// E and one S unit (the first unit sizes the arenas; every later unit must
// not allocate).
//
// The probe routes by value (value below the list's lower octile goes left:
// the winning attribute's list, two long runs) or, for a random fixture, by
// a coin per record: the shape of every attribute that did not win the
// split, whose destinations flip at nearly every record.
type allocFixture struct {
	st    *alist.MemStore
	recs  []alist.Record
	total []int64
	prb   probe.Leaf
	nl    int64
	sc    *scratch
}

func newAllocFixture(tb testing.TB, n int, random bool) *allocFixture {
	tb.Helper()
	rng := rand.New(rand.NewSource(7))
	recs := make([]alist.Record, n)
	perm := rng.Perm(n)
	total := make([]int64, 2)
	for i := range recs {
		cls := int32(rng.Intn(2))
		recs[i] = alist.Record{Value: float64(rng.Intn(n / 4)), Tid: uint32(perm[i]), Class: cls}
		total[cls]++
	}
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].Value != recs[j].Value {
			return recs[i].Value < recs[j].Value
		}
		return recs[i].Tid < recs[j].Tid
	})
	st := alist.NewMemStore(1, 2)
	if _, err := st.Reserve(0, 0, n); err != nil {
		tb.Fatal(err)
	}
	if err := st.WriteAt(0, 0, 0, recs); err != nil {
		tb.Fatal(err)
	}
	fac, err := probe.NewFactory(probe.GlobalBit, n)
	if err != nil {
		tb.Fatal(err)
	}
	var nl int64
	left := make([]bool, n)
	octile := float64(n / 8)
	for i, r := range recs {
		left[i] = r.Value < octile
		if random {
			left[i] = rng.Intn(2) == 0
		}
		if left[i] {
			nl++
		}
	}
	prb := fac.ForLeaf(nl, int64(n)-nl)
	for i, r := range recs {
		prb.Set(r.Tid, left[i])
	}
	prb.Seal()

	sc := &scratch{}
	sc.contScan = func(recs []alist.Record) error {
		sc.cont.PushChunk(recs)
		return nil
	}
	sc.splitScan = sc.splitPartition
	f := &allocFixture{st: st, recs: recs, total: total, prb: prb, nl: nl, sc: sc}
	// Warm up: first units size every arena buffer.
	f.runEUnit(tb)
	f.runSUnit(tb)
	return f
}

// runEUnit performs one continuous E work unit over slot 0.
func (f *allocFixture) runEUnit(tb testing.TB) {
	f.sc.cont.Reset(0, f.total)
	if err := f.st.Scan(0, 0, 0, len(f.recs), f.sc.contScan); err != nil {
		tb.Fatal(err)
	}
	if c := f.sc.cont.Finish(); !c.Valid {
		tb.Fatal("E unit found no candidate")
	}
}

// runSUnit performs one S work unit: slot 0 is split into two regions of
// slot 1, which is recycled afterwards exactly as the engines recycle level
// slots.
func (f *allocFixture) runSUnit(tb testing.TB) {
	n := len(f.recs)
	offL, err := f.st.Reserve(0, 1, int(f.nl))
	if err != nil {
		tb.Fatal(err)
	}
	offR, err := f.st.Reserve(0, 1, n-int(f.nl))
	if err != nil {
		tb.Fatal(err)
	}
	sc := f.sc
	sc.apL.Reset(f.st, 0, 1, offL, int(f.nl))
	sc.apR.Reset(f.st, 0, 1, offR, n-int(f.nl))
	sc.useL, sc.useR = true, true
	sc.armProbe(f.prb)
	if err := f.st.Scan(0, 0, 0, n, sc.splitScan); err != nil {
		tb.Fatal(err)
	}
	if err := sc.apL.Close(); err != nil {
		tb.Fatal(err)
	}
	if err := sc.apR.Close(); err != nil {
		tb.Fatal(err)
	}
	if err := f.st.Reset(0, 1); err != nil {
		tb.Fatal(err)
	}
}

// TestWorkUnitAllocationBudget is the allocation-budget gate wired into
// `make verify`: after warm-up, E and S work units on MemStore must touch
// the allocator zero times, whether S moves two long runs or records whose
// destination flips at random.
func TestWorkUnitAllocationBudget(t *testing.T) {
	f := newAllocFixture(t, 20000, false)
	if avg := testing.AllocsPerRun(10, func() { f.runEUnit(t) }); avg != 0 {
		t.Errorf("E work unit allocates %.1f objects/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(10, func() { f.runSUnit(t) }); avg != 0 {
		t.Errorf("S work unit allocates %.1f objects/op, want 0", avg)
	}
	r := newAllocFixture(t, 20000, true)
	if avg := testing.AllocsPerRun(10, func() { r.runSUnit(t) }); avg != 0 {
		t.Errorf("S work unit with random destinations allocates %.1f objects/op, want 0", avg)
	}
}

// TestBuildMallocsBudget bounds the whole-build allocation count on the
// paper's F7 workload: the scratch arenas must keep the per-build Mallocs
// delta more than an order of magnitude below the pre-arena baseline
// (5.88M mallocs for F7/A32/100K serial MemStore).
func TestBuildMallocsBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("full F7/100K build")
	}
	tbl := synthTable(t, 7, 32, 100000, 42)
	// One warm-up build so lazily initialized globals don't bill this run.
	if _, _, err := Build(tbl, Config{Algorithm: Serial}); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, _, err := Build(tbl, Config{Algorithm: Serial}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	delta := after.Mallocs - before.Mallocs
	t.Logf("build Mallocs delta = %d", delta)
	if delta > 588_000 {
		t.Errorf("build allocated %d objects, budget 588000 (10x below the 5.88M baseline)", delta)
	}
}

func BenchmarkEUnit(b *testing.B) {
	f := newAllocFixture(b, 100000, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.runEUnit(b)
	}
}

// BenchmarkSUnit splits a 100K-record list: "runs" is the winning
// attribute's shape (two long runs), "random" the shape of every other
// attribute, where most S time goes.
func BenchmarkSUnit(b *testing.B) {
	for _, random := range []bool{false, true} {
		name := "runs"
		if random {
			name = "random"
		}
		b.Run(name, func(b *testing.B) {
			f := newAllocFixture(b, 100000, random)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.runSUnit(b)
			}
		})
	}
}

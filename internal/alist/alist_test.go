package alist

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
)

func testSchema() *dataset.Schema {
	return &dataset.Schema{
		Attrs: []dataset.Attribute{
			{Name: "x", Kind: dataset.Continuous},
			{Name: "c", Kind: dataset.Categorical, Categories: []string{"a", "b", "c"}},
		},
		Classes: []string{"p", "n"},
	}
}

func TestFromTable(t *testing.T) {
	tbl, err := dataset.NewTable(testSchema())
	if err != nil {
		t.Fatal(err)
	}
	rows := []struct {
		x   float64
		c   int32
		cls int32
	}{{3.5, 0, 1}, {1.5, 2, 0}, {2.5, 1, 1}}
	for _, r := range rows {
		tbl.AppendFast(dataset.Tuple{Cont: []float64{r.x, 0}, Cat: []int32{0, r.c}, Class: r.cls})
	}
	cont := FromTable(tbl, 0)
	if len(cont) != 3 {
		t.Fatalf("len = %d", len(cont))
	}
	for i, r := range rows {
		if cont[i].Value != r.x || cont[i].Tid != uint32(i) || cont[i].Class != r.cls {
			t.Fatalf("record %d = %+v", i, cont[i])
		}
	}
	cat := FromTable(tbl, 1)
	for i, r := range rows {
		if int32(cat[i].Value) != r.c {
			t.Fatalf("cat record %d = %+v", i, cat[i])
		}
	}
}

// sameRecords compares record lists bit for bit, so a −0 where the
// reference has +0 is a difference.
func sameRecords(a, b []Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i].Value) != math.Float64bits(b[i].Value) ||
			a[i].Tid != b[i].Tid || a[i].Class != b[i].Class {
			return false
		}
	}
	return true
}

// mixedRecords draws n records with shuffled unique tids whose values mix
// every kind the pre-sort meets: about half are ±0 ties (like F7's zero
// commissions), a tenth are specials (±Inf, subnormals, extremes), and the
// rest are negative and positive normals.
func mixedRecords(rng *rand.Rand, n int) []Record {
	specials := []float64{
		math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		0x1p-1030, -0x1p-1030, math.MaxFloat64, -math.MaxFloat64, 1, -1,
	}
	tids := rng.Perm(n)
	recs := make([]Record, n)
	for i := range recs {
		var v float64
		switch p := rng.Float64(); {
		case p < 0.25:
			v = 0
		case p < 0.5:
			v = math.Copysign(0, -1)
		case p < 0.6:
			v = specials[rng.Intn(len(specials))]
		default:
			v = rng.NormFloat64() * 1e5
		}
		recs[i] = Record{Value: v, Tid: uint32(tids[i]), Class: int32(rng.Intn(3))}
	}
	return recs
}

// Property: SortByValue is exactly the (value, tid) comparator sort — so it
// sorts and is deterministic under permutation — on tie-heavy lists, on
// tid-ordered and shuffled input, and on every kind of value at lengths 0-3
// through 100K, with one scratch buffer reused across sizes.
func TestSortByValueProperty(t *testing.T) {
	f := func(vals []float64, seed int64) bool {
		recs := make([]Record, len(vals))
		for i, v := range vals {
			recs[i] = Record{Value: float64(int(v*4)%8) - 3, Tid: uint32(i)}
		}
		a := append([]Record(nil), recs...)
		b := append([]Record(nil), recs...)
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
		SortByValue(a, nil)
		SortByValue(b, nil)
		want := slices.Clone(recs)
		slices.SortFunc(want, cmpRecord)
		return IsSortedByValue(a) && sameRecords(a, want) && sameRecords(b, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}

	var scratch []Record
	check := func(rng *rand.Rand, n int) {
		t.Helper()
		recs := mixedRecords(rng, n)
		want := slices.Clone(recs)
		slices.SortFunc(want, cmpRecord)
		scratch = SortByValue(recs, scratch)
		if len(scratch) < n {
			t.Fatalf("n=%d: scratch returned with len %d", n, len(scratch))
		}
		if !sameRecords(recs, want) {
			for i := range recs {
				if !sameRecords(recs[i:i+1], want[i:i+1]) {
					t.Fatalf("n=%d: record %d is %+v, comparator sort has %+v", n, i, recs[i], want[i])
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	for n := 0; n <= 3; n++ {
		for i := 0; i < 200; i++ {
			check(rng, n)
		}
	}
	for _, n := range []int{17, 1000, 100000, 5} {
		check(rng, n)
	}
}

// TestSortAllocationBudget pins the pre-sort at zero allocations once the
// caller supplies scratch, including the tid-repair pass for shuffled ties.
func TestSortAllocationBudget(t *testing.T) {
	orig := mixedRecords(rand.New(rand.NewSource(2)), 20000)
	recs := make([]Record, len(orig))
	scratch := make([]Record, len(orig))
	allocs := testing.AllocsPerRun(20, func() {
		copy(recs, orig)
		scratch = SortByValue(recs, scratch)
	})
	if allocs != 0 {
		t.Fatalf("SortByValue with scratch: %.1f allocs/op, want 0", allocs)
	}
}

// storeFactories builds each Store implementation for conformance tests.
func storeFactories(t *testing.T, nattr, slots int) map[string]Store {
	t.Helper()
	fs, err := NewFileStore(t.TempDir(), nattr, slots)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	return map[string]Store{
		"mem":  NewMemStore(nattr, slots),
		"file": fs,
	}
}

func TestStoreConformance(t *testing.T) {
	for name, st := range storeFactories(t, 2, 3) {
		t.Run(name, func(t *testing.T) {
			if st.NumSlots() != 3 {
				t.Fatalf("NumSlots = %d", st.NumSlots())
			}
			// Reserve two regions in one slot.
			off1, err := st.Reserve(0, 1, 4)
			if err != nil {
				t.Fatal(err)
			}
			off2, err := st.Reserve(0, 1, 2)
			if err != nil {
				t.Fatal(err)
			}
			if off1 != 0 || off2 != 4 {
				t.Fatalf("offsets %d,%d, want 0,4", off1, off2)
			}
			if st.Len(0, 1) != 6 {
				t.Fatalf("Len = %d", st.Len(0, 1))
			}
			recs := []Record{
				{Value: 1.5, Tid: 10, Class: 0},
				{Value: -2.5, Tid: 11, Class: 1},
				{Value: 3, Tid: 12, Class: 0},
				{Value: 4, Tid: 13, Class: 1},
			}
			if err := st.WriteAt(0, 1, off1, recs); err != nil {
				t.Fatal(err)
			}
			if err := st.WriteAt(0, 1, off2, recs[:2]); err != nil {
				t.Fatal(err)
			}
			// Scan the first region.
			var got []Record
			if err := st.Scan(0, 1, off1, 4, func(rs []Record) error {
				got = append(got, rs...)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if len(got) != 4 {
				t.Fatalf("scanned %d records", len(got))
			}
			for i := range got {
				if got[i] != recs[i] {
					t.Fatalf("record %d = %+v, want %+v", i, got[i], recs[i])
				}
			}
			// Scan with offset into the second region.
			got = got[:0]
			if err := st.Scan(0, 1, off2, 2, func(rs []Record) error {
				got = append(got, rs...)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if len(got) != 2 || got[0] != recs[0] || got[1] != recs[1] {
				t.Fatalf("offset scan wrong: %+v", got)
			}

			// Errors: out-of-range writes/scans and invalid slots.
			if err := st.WriteAt(0, 1, 5, recs); err == nil {
				t.Fatal("overflowing write must fail")
			}
			if err := st.Scan(0, 1, 3, 10, func([]Record) error { return nil }); err == nil {
				t.Fatal("overflowing scan must fail")
			}
			if _, err := st.Reserve(9, 0, 1); err == nil {
				t.Fatal("bad attr must fail")
			}
			if _, err := st.Reserve(0, 9, 1); err == nil {
				t.Fatal("bad slot must fail")
			}

			// Reset empties the slot for reuse.
			if err := st.Reset(0, 1); err != nil {
				t.Fatal(err)
			}
			if st.Len(0, 1) != 0 {
				t.Fatal("reset did not empty slot")
			}
			off, err := st.Reserve(0, 1, 1)
			if err != nil || off != 0 {
				t.Fatalf("post-reset reserve = %d, %v", off, err)
			}

			// EnsureSlots grows.
			if err := st.EnsureSlots(5); err != nil {
				t.Fatal(err)
			}
			if st.NumSlots() != 5 {
				t.Fatalf("NumSlots after grow = %d", st.NumSlots())
			}
			if _, err := st.Reserve(1, 4, 1); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestStoreConcurrentRegions(t *testing.T) {
	for name, st := range storeFactories(t, 1, 1) {
		t.Run(name, func(t *testing.T) {
			const writers = 8
			const per = 500
			offs := make([]int64, writers)
			for w := range offs {
				off, err := st.Reserve(0, 0, per)
				if err != nil {
					t.Fatal(err)
				}
				offs[w] = off
			}
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					recs := make([]Record, per)
					for i := range recs {
						recs[i] = Record{Value: float64(w), Tid: uint32(w*per + i)}
					}
					if err := st.WriteAt(0, 0, offs[w], recs); err != nil {
						t.Error(err)
					}
				}(w)
			}
			wg.Wait()
			// Every region must contain exactly its writer's records.
			for w := 0; w < writers; w++ {
				i := 0
				err := st.Scan(0, 0, offs[w], per, func(rs []Record) error {
					for _, r := range rs {
						if r.Value != float64(w) || r.Tid != uint32(w*per+i) {
							return fmt.Errorf("writer %d record %d corrupted: %+v", w, i, r)
						}
						i++
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestStoreConcurrentSetup drives each store the way the setup farm does:
// several workers each Reserve and WriteAt slot 0 of whole attributes at
// once.
func TestStoreConcurrentSetup(t *testing.T) {
	const nattr, workers, n = 6, 3, 700
	for name, st := range storeFactories(t, nattr, 1) {
		t.Run(name, func(t *testing.T) {
			var next atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for a := int(next.Add(1) - 1); a < nattr; a = int(next.Add(1) - 1) {
						recs := make([]Record, n)
						for i := range recs {
							recs[i] = Record{Value: float64(a), Tid: uint32(i)}
						}
						off, err := st.Reserve(a, 0, n)
						if err == nil {
							err = st.WriteAt(a, 0, off, recs)
						}
						if err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			for a := 0; a < nattr; a++ {
				i := 0
				err := st.Scan(a, 0, 0, n, func(rs []Record) error {
					for _, r := range rs {
						if r.Value != float64(a) || r.Tid != uint32(i) {
							return fmt.Errorf("attr %d record %d corrupted: %+v", a, i, r)
						}
						i++
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// Property: encode/decode round-trips records exactly (including negative
// values, NaN payload bits are not required).
func TestRecordCodecRoundTrip(t *testing.T) {
	f := func(v float64, tid uint32, class int32) bool {
		in := []Record{{Value: v, Tid: tid, Class: class}}
		buf := make([]byte, RecordSize)
		encodeRecords(buf, in)
		out := make([]Record, 1)
		decodeRecords(out, buf)
		return out[0] == in[0]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestAppender(t *testing.T) {
	st := NewMemStore(1, 1)
	off, err := st.Reserve(0, 0, AppenderChunk*2+5)
	if err != nil {
		t.Fatal(err)
	}
	ap := NewAppender(st, 0, 0, off, AppenderChunk*2+5)
	for i := 0; i < AppenderChunk*2+5; i++ {
		if err := ap.Append(Record{Value: float64(i), Tid: uint32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ap.Close(); err != nil {
		t.Fatal(err)
	}
	i := 0
	if err := st.Scan(0, 0, off, AppenderChunk*2+5, func(rs []Record) error {
		for _, r := range rs {
			if r.Value != float64(i) {
				return fmt.Errorf("record %d = %+v", i, r)
			}
			i++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// Overflow and underfill are errors.
	off2, _ := st.Reserve(0, 0, 2)
	ap2 := NewAppender(st, 0, 0, off2, 2)
	ap2.Append(Record{})
	if err := ap2.Close(); err == nil {
		t.Fatal("underfilled appender must fail Close")
	}
	ap3 := NewAppender(st, 0, 0, off2, 1)
	ap3.Append(Record{})
	if err := ap3.Append(Record{}); err == nil {
		t.Fatal("overflowing appender must fail")
	}
}

func TestFileStoreReuseKeepsFileCountFixed(t *testing.T) {
	dir := t.TempDir()
	st, err := NewFileStore(dir, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// Simulate many levels of reserve/write/reset cycles.
	for level := 0; level < 20; level++ {
		for a := 0; a < 3; a++ {
			for s := 0; s < 4; s++ {
				off, err := st.Reserve(a, s, 10)
				if err != nil {
					t.Fatal(err)
				}
				recs := make([]Record, 10)
				if err := st.WriteAt(a, s, off, recs); err != nil {
					t.Fatal(err)
				}
			}
		}
		for a := 0; a < 3; a++ {
			for s := 0; s < 4; s++ {
				if err := st.Reset(a, s); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.alist"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 12 {
		t.Fatalf("physical files = %d, want 3 attrs × 4 slots = 12", len(files))
	}
	if st.NumPhysicalFiles() != 12 {
		t.Fatalf("NumPhysicalFiles = %d", st.NumPhysicalFiles())
	}
	// After reset, disk usage is bounded (files truncated, not grown).
	for _, f := range files {
		fi, err := os.Stat(f)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() != 0 {
			t.Fatalf("file %s not truncated: %d bytes", f, fi.Size())
		}
	}
}

func TestFileStoreBytesOnDisk(t *testing.T) {
	st, err := NewFileStore(t.TempDir(), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Reserve(0, 0, 100); err != nil {
		t.Fatal(err)
	}
	if got := st.BytesOnDisk(); got != 100*RecordSize {
		t.Fatalf("BytesOnDisk = %d, want %d", got, 100*RecordSize)
	}
}

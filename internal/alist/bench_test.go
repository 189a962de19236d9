package alist

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/synth"
)

func benchStoreRoundTrip(b *testing.B, st Store, n int) {
	b.Helper()
	recs := make([]Record, n)
	rng := rand.New(rand.NewSource(1))
	for i := range recs {
		recs[i] = Record{Value: rng.Float64(), Tid: uint32(i), Class: int32(i & 1)}
	}
	b.SetBytes(int64(n) * RecordSize * 2) // one write + one read
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.Reset(0, 0); err != nil {
			b.Fatal(err)
		}
		off, err := st.Reserve(0, 0, n)
		if err != nil {
			b.Fatal(err)
		}
		if err := st.WriteAt(0, 0, off, recs); err != nil {
			b.Fatal(err)
		}
		count := 0
		if err := st.Scan(0, 0, off, n, func(rs []Record) error {
			count += len(rs)
			return nil
		}); err != nil {
			b.Fatal(err)
		}
		if count != n {
			b.Fatalf("scanned %d", count)
		}
	}
}

// BenchmarkStoreRoundTrip measures write+scan throughput of the two
// attribute-list backends on a 100K-record list.
func BenchmarkStoreRoundTrip(b *testing.B) {
	const n = 100000
	b.Run("mem", func(b *testing.B) {
		benchStoreRoundTrip(b, NewMemStore(1, 1), n)
	})
	b.Run("file", func(b *testing.B) {
		st, err := NewFileStore(b.TempDir(), 1, 1)
		if err != nil {
			b.Fatal(err)
		}
		defer st.Close()
		benchStoreRoundTrip(b, st, n)
	})
}

// BenchmarkSortByValue measures the one-time pre-sort of the setup phase:
// one 100K-record list of uniform values, and every continuous list of
// F7-A32-D100K (salary, commission with its zero ties, loan, ...) in turn.
func BenchmarkSortByValue(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	uniform := make([]Record, 100000)
	for i := range uniform {
		uniform[i] = Record{Value: rng.Float64(), Tid: uint32(i)}
	}
	tbl, err := synth.Generate(synth.Config{Function: 7, Attrs: 32, Tuples: 100000, Seed: 1, Perturbation: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	var f7 [][]Record
	for a, attr := range tbl.Schema().Attrs {
		if attr.Kind == dataset.Continuous {
			f7 = append(f7, FromTable(tbl, a))
		}
	}
	for _, bc := range []struct {
		name  string
		lists [][]Record
	}{{"uniform", [][]Record{uniform}}, {"F7-A32", f7}} {
		b.Run(bc.name, func(b *testing.B) {
			recs := make([]Record, len(uniform))
			scratch := make([]Record, len(uniform))
			b.SetBytes(int64(len(bc.lists)*len(uniform)) * RecordSize)
			b.ReportAllocs()
			for b.Loop() {
				for _, l := range bc.lists {
					copy(recs, l)
					scratch = SortByValue(recs, scratch)
				}
			}
		})
	}
}

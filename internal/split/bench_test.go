package split

import (
	"math/rand"
	"testing"

	"repro/internal/alist"
)

func benchRecords(n int, distinct int) []alist.Record {
	rng := rand.New(rand.NewSource(1))
	recs := make([]alist.Record, n)
	for i := range recs {
		recs[i] = alist.Record{
			Value: float64(rng.Intn(distinct)),
			Tid:   uint32(i),
			Class: int32(rng.Intn(2)),
		}
	}
	alist.SortByValue(recs, nil)
	return recs
}

// BenchmarkContEval measures the E-phase scan throughput — the dominant
// cost of the whole classifier.
func BenchmarkContEval(b *testing.B) {
	recs := benchRecords(100000, 1<<20)
	total := []int64{0, 0}
	for _, r := range recs {
		total[r.Class]++
	}
	b.SetBytes(int64(len(recs)) * alist.RecordSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := NewContEval(0, total)
		ev.PushChunk(recs)
		if !ev.Finish().Valid {
			b.Fatal("no candidate")
		}
	}
}

// BenchmarkContEvalFewDistinct measures the same scan when runs of equal
// values skip gini evaluations.
func BenchmarkContEvalFewDistinct(b *testing.B) {
	recs := benchRecords(100000, 16)
	total := []int64{0, 0}
	for _, r := range recs {
		total[r.Class]++
	}
	b.SetBytes(int64(len(recs)) * alist.RecordSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := NewContEval(0, total)
		ev.PushChunk(recs)
		ev.Finish()
	}
}

// BenchmarkCatEvalEnumerate measures subset enumeration at the default
// threshold boundary (10 categories → 511 bipartitions).
func BenchmarkCatEvalEnumerate(b *testing.B) {
	recs := benchRecords(100000, 10)
	total := []int64{0, 0}
	for _, r := range recs {
		total[r.Class]++
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := NewCatEval(0, 10, total, 0)
		ev.PushChunk(recs)
		ev.Finish()
	}
}

// BenchmarkCatEvalGreedy measures the greedy subsetting search on a
// 64-category attribute.
func BenchmarkCatEvalGreedy(b *testing.B) {
	recs := benchRecords(100000, 64)
	total := []int64{0, 0}
	for _, r := range recs {
		total[r.Class]++
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := NewCatEval(0, 64, total, 0)
		ev.PushChunk(recs)
		ev.Finish()
	}
}

func BenchmarkGini(b *testing.B) {
	counts := []int64{123456, 654321}
	for i := 0; i < b.N; i++ {
		Gini(counts, 777777)
	}
}

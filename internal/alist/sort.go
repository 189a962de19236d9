package alist

import (
	"cmp"
	"math"
	"slices"
)

// cmpRecord is the (value, tid) total order of the setup pre-sort:
// IsSortedByValue checks it, and SortByValue's tests compare against it.
func cmpRecord(a, b Record) int {
	if a.Value != b.Value {
		if a.Value < b.Value {
			return -1
		}
		return 1
	}
	if a.Tid != b.Tid {
		if a.Tid < b.Tid {
			return -1
		}
		return 1
	}
	return 0
}

// sortKey maps a value to a uint64 whose unsigned order is the value's
// order: negative values have every bit flipped, the rest only the sign bit.
// −0 is folded onto +0 first, because cmpRecord treats them as equal: the two
// then tie and keep their input order, so a tid-ordered list with both still
// leaves SortByValue's final tid pass nothing to do.
func sortKey(v float64) uint64 {
	if v == 0 {
		v = 0
	}
	b := math.Float64bits(v)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// SortByValue sorts a continuous attribute list by value, ties broken by tid
// — for any list without NaNs exactly what slices.SortFunc(recs, cmpRecord)
// produces. This is the one-time pre-sort of the setup phase.
//
// It is a stable LSD radix sort over sortKey in six 11-bit digits (six
// passes where 8-bit digits take eight; the counts still fit the stack). One
// pass counts every digit's histogram, a digit all keys share is skipped, and
// each remaining digit moves the records between recs and scratch. Stability
// keeps equal values in input order, so a last linear pass only has to put
// into tid order the runs of equal values whose tids are not ascending;
// FromTable's tid-ordered lists have none.
//
// scratch is the ping-pong buffer; it is grown when shorter than recs and
// returned so a caller sorting many lists allocates it once.
func SortByValue(recs, scratch []Record) []Record {
	const (
		bits    = 11
		buckets = 1 << bits
		mask    = buckets - 1
	)
	n := len(recs)
	if cap(scratch) < n {
		scratch = make([]Record, n)
	}
	scratch = scratch[:n]
	if n < 2 {
		return scratch
	}

	// uint32 counts suffice: with unique uint32 tids a list has at most
	// 1<<32 records, and the offsets below are exact modulo 1<<32.
	var counts [(64 + bits - 1) / bits][buckets]uint32
	for i := range recs {
		k := sortKey(recs[i].Value)
		for d := range counts {
			counts[d][k>>(bits*d)&mask]++
		}
	}

	src, dst := recs, scratch
	first := sortKey(recs[0].Value)
	for d := range counts {
		c := &counts[d]
		shift := bits * d
		if c[first>>shift&mask] == uint32(n) {
			continue
		}
		var sum uint32
		for b, cnt := range c {
			c[b] = sum
			sum += cnt
		}
		for _, r := range src {
			b := sortKey(r.Value) >> shift & mask
			dst[c[b]] = r
			c[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &recs[0] {
		copy(recs, src)
	}

	for lo := 0; lo < n; {
		hi, ordered := lo+1, true
		for ; hi < n && recs[hi].Value == recs[lo].Value; hi++ {
			ordered = ordered && recs[hi-1].Tid < recs[hi].Tid
		}
		if !ordered {
			slices.SortFunc(recs[lo:hi], func(a, b Record) int { return cmp.Compare(a.Tid, b.Tid) })
		}
		lo = hi
	}
	return scratch
}

// IsSortedByValue reports whether the list is sorted by (value, tid).
func IsSortedByValue(recs []Record) bool {
	return slices.IsSortedFunc(recs, cmpRecord)
}

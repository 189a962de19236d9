package probe

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFactoryKinds(t *testing.T) {
	for _, k := range []Kind{GlobalBit, LeafHash, LeafRelabel} {
		f, err := NewFactory(k, 100)
		if err != nil {
			t.Fatal(err)
		}
		if f.Kind() != k {
			t.Fatalf("kind = %v, want %v", f.Kind(), k)
		}
		// The split kernel relabels exactly when a design exposes a rank
		// index, and asks a design without raw bits per record.
		prb := f.ForLeaf(1, 1)
		prb.Set(3, true)
		prb.Seal()
		rb, raw := prb.(RawBits)
		if raw != (k != LeafHash) {
			t.Fatalf("%v: implements RawBits = %v", k, raw)
		}
		if raw {
			if _, rank := rb.RawBits(); (rank != nil) != (k == LeafRelabel) {
				t.Fatalf("%v: rank index = %v", k, rank)
			}
		}
	}
	if _, err := NewFactory(Kind(42), 10); err == nil {
		t.Fatal("unknown kind must fail")
	}
	if Kind(42).String() == "" {
		t.Fatal("unknown kind String must not be empty")
	}
}

// applyProbe drives one leaf's W scan and verifies all reads.
func applyProbe(t *testing.T, f Factory, tids []uint32, left []bool) Leaf {
	t.Helper()
	var nl, nr int64
	for _, l := range left {
		if l {
			nl++
		} else {
			nr++
		}
	}
	p := f.ForLeaf(nl, nr)
	for i, tid := range tids {
		p.Set(tid, left[i])
	}
	p.Seal()
	for i, tid := range tids {
		if got := p.Left(tid); got != left[i] {
			t.Fatalf("%v: Left(%d) = %v, want %v", f.Kind(), tid, got, left[i])
		}
	}
	return p
}

func TestProbesRecordDestinations(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, kind := range []Kind{GlobalBit, LeafHash, LeafRelabel} {
		n := 500
		f, err := NewFactory(kind, n)
		if err != nil {
			t.Fatal(err)
		}
		tids := make([]uint32, n)
		left := make([]bool, n)
		for i := range tids {
			tids[i] = uint32(i)
			left[i] = rng.Intn(2) == 0
		}
		// Scan order differs from tid order, as in a sorted winner list.
		order := rng.Perm(n)
		scanT := make([]uint32, n)
		scanL := make([]bool, n)
		for i, j := range order {
			scanT[i], scanL[i] = tids[j], left[j]
		}
		p := applyProbe(t, f, scanT, scanL)
		p.Release()
	}
}

// Property: the relabel probe assigns each child dense tids 0..n_child-1,
// in parent-tid order.
func TestRelabelRemapDense(t *testing.T) {
	f := func(pattern []bool) bool {
		n := len(pattern)
		if n == 0 {
			return true
		}
		fac, _ := NewFactory(LeafRelabel, n)
		var nl, nr int64
		for _, l := range pattern {
			if l {
				nl++
			} else {
				nr++
			}
		}
		p := fac.ForLeaf(nl, nr)
		for i, l := range pattern {
			p.Set(uint32(i), l)
		}
		p.Seal()
		var wantL, wantR uint32
		for i, l := range pattern {
			got := p.Remap(uint32(i))
			if l {
				if got != wantL {
					return false
				}
				wantL++
			} else {
				if got != wantR {
					return false
				}
				wantR++
			}
		}
		return uint32(nl) == wantL && uint32(nr) == wantR
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: non-relabeling probes have identity Remap.
func TestIdentityRemap(t *testing.T) {
	for _, kind := range []Kind{GlobalBit, LeafHash} {
		fac, _ := NewFactory(kind, 1000)
		p := fac.ForLeaf(3, 2)
		p.Set(7, true)
		p.Seal()
		if p.Remap(7) != 7 || p.Remap(999) != 999 {
			t.Fatalf("%v: Remap must be identity", kind)
		}
	}
}

func TestGlobalBitDisjointLeaves(t *testing.T) {
	// Two leaves with disjoint tids share the global array; neither may
	// disturb the other, even within the same 64-bit word.
	fac, _ := NewFactory(GlobalBit, 128)
	p1 := fac.ForLeaf(2, 2)
	p2 := fac.ForLeaf(2, 2)
	p1.Set(0, true)
	p1.Set(1, false)
	p2.Set(2, true)
	p2.Set(3, false)
	p1.Set(64, false)
	p2.Set(65, true)
	p1.Seal()
	p2.Seal()
	if !p1.Left(0) || p1.Left(1) || !p2.Left(2) || p2.Left(3) {
		t.Fatal("low-word bits wrong")
	}
	if p1.Left(64) || !p2.Left(65) {
		t.Fatal("second-word bits wrong")
	}
}

func TestGlobalBitReusedTidsAcrossLevels(t *testing.T) {
	// The same tid is re-Set at a later level with the opposite side; the
	// probe must reflect the latest write (bits are overwritten, never
	// cleared wholesale).
	fac, _ := NewFactory(GlobalBit, 64)
	p := fac.ForLeaf(1, 0)
	p.Set(5, true)
	p.Seal()
	if !p.Left(5) {
		t.Fatal("first level set failed")
	}
	q := fac.ForLeaf(0, 1)
	q.Set(5, false)
	q.Seal()
	if q.Left(5) {
		t.Fatal("second level overwrite failed")
	}
}

func TestHashProbeKeepsSmallerChild(t *testing.T) {
	fac, _ := NewFactory(LeafHash, 0)
	// Left smaller.
	p := fac.ForLeaf(1, 3).(*hashLeaf)
	if !p.smallerLeft {
		t.Fatal("left should be the smaller child")
	}
	p.Set(1, true)
	p.Set(2, false)
	p.Set(3, false)
	p.Set(4, false)
	if got := hashStored(p); got != 1 {
		t.Fatalf("hash probe stored %d tids, want 1 (smaller child only)", got)
	}
	if !p.Left(1) || p.Left(2) {
		t.Fatal("lookups wrong")
	}
	// Right smaller.
	q := fac.ForLeaf(3, 1).(*hashLeaf)
	if q.smallerLeft {
		t.Fatal("right should be the smaller child")
	}
	q.Set(1, true)
	q.Set(2, true)
	q.Set(3, true)
	q.Set(4, false)
	if got := hashStored(q); got != 1 {
		t.Fatalf("hash probe stored %d tids, want 1", got)
	}
	if !q.Left(1) || q.Left(4) {
		t.Fatal("lookups wrong")
	}
	q.Release()
}

// hashStored counts the occupied slots of an open-addressed hash probe.
func hashStored(h *hashLeaf) int {
	n := 0
	for _, s := range h.slots {
		if s != 0 {
			n++
		}
	}
	return n
}

func TestRelabelRankAcrossWords(t *testing.T) {
	// Exercise the popcount rank index across word boundaries.
	n := int64(200)
	fac, _ := NewFactory(LeafRelabel, int(n))
	p := fac.ForLeaf(100, 100)
	for i := int64(0); i < n; i++ {
		p.Set(uint32(i), i%2 == 0)
	}
	p.Seal()
	for i := int64(0); i < n; i++ {
		want := uint32(i / 2)
		if got := p.Remap(uint32(i)); got != want {
			t.Fatalf("Remap(%d) = %d, want %d", i, got, want)
		}
	}
}

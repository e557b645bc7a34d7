package uintset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBasicOps(t *testing.T) {
	var s Set // zero value usable
	if s.Has(1) || s.Len() != 0 {
		t.Fatal("empty set misbehaves")
	}
	if !s.Add(1) {
		t.Fatal("first Add must report true")
	}
	if s.Add(1) {
		t.Fatal("second Add must report false")
	}
	if !s.Has(1) || s.Has(2) || s.Len() != 1 {
		t.Fatal("membership wrong")
	}
}

func TestZeroKey(t *testing.T) {
	s := New(4)
	if s.Has(0) {
		t.Fatal("0 must be absent initially")
	}
	if !s.Add(0) || !s.Has(0) || s.Len() != 1 {
		t.Fatal("key 0 not stored correctly")
	}
	if s.Add(0) {
		t.Fatal("0 reinserted")
	}
}

func TestMaxKey(t *testing.T) {
	s := New(4)
	const k = ^uint32(0)
	if !s.Add(k) || !s.Has(k) {
		t.Fatal("MaxUint32 not stored")
	}
}

func TestGrowthKeepsMembers(t *testing.T) {
	s := New(0)
	for i := uint32(0); i < 10000; i++ {
		s.Add(i * 7)
	}
	if s.Len() != 10000 {
		t.Fatalf("len = %d", s.Len())
	}
	for i := uint32(0); i < 10000; i++ {
		if !s.Has(i * 7) {
			t.Fatalf("lost key %d", i*7)
		}
		if s.Has(i*7 + 1) {
			t.Fatalf("phantom key %d", i*7+1)
		}
	}
}

func TestResetAndReuse(t *testing.T) {
	s := New(8)
	for i := uint32(0); i < 100; i++ {
		s.Add(i)
	}
	s.Reset()
	if s.Len() != 0 || s.Has(5) {
		t.Fatal("Reset incomplete")
	}
	if !s.Add(5) || s.Len() != 1 {
		t.Fatal("unusable after Reset")
	}
}

func TestCloneIndependent(t *testing.T) {
	s := New(8)
	s.Add(1)
	cp := s.Clone()
	cp.Add(2)
	if s.Has(2) || !cp.Has(1) || cp.Len() != 2 || s.Len() != 1 {
		t.Fatal("clone not independent")
	}
}

func TestForEach(t *testing.T) {
	s := New(8)
	want := map[uint32]bool{3: true, 9: true, 27: true}
	for k := range want {
		s.Add(k)
	}
	got := map[uint32]bool{}
	s.ForEach(func(k uint32) bool { got[k] = true; return true })
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %v", got)
	}
	// Early stop.
	n := 0
	s.ForEach(func(uint32) bool { n++; return false })
	if n != 1 {
		t.Fatalf("early stop visited %d", n)
	}
}

// TestMatchesMapSemantics drives the set and a reference map with the same
// random operations.
func TestMatchesMapSemantics(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New(0)
		ref := map[uint32]bool{}
		for op := 0; op < 2000; op++ {
			k := uint32(rng.Intn(300))
			switch rng.Intn(3) {
			case 0:
				added := s.Add(k)
				if added == ref[k] {
					return false
				}
				ref[k] = true
			case 1:
				if s.Has(k) != ref[k] {
					return false
				}
			case 2:
				if s.Len() != len(ref) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAddHas(b *testing.B) {
	s := New(1024)
	for i := 0; i < b.N; i++ {
		k := uint32(i) % 4096
		s.Add(k)
		s.Has(k + 1)
	}
}

func BenchmarkMapBaseline(b *testing.B) {
	m := make(map[uint32]struct{}, 1024)
	for i := 0; i < b.N; i++ {
		k := uint32(i) % 4096
		m[k] = struct{}{}
		_, _ = m[k+1]
	}
}

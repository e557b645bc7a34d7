// Package uintset provides a compact open-addressing hash set of uint32
// keys. It exists because the checkpoint oracles perform hundreds of
// membership tests per stream action; profiling shows the general-purpose
// map[uint32]struct{} spends most of its time in hashing and group probing,
// while this set's Fibonacci hash plus linear probing is a few instructions
// per lookup.
package uintset

// Set is a hash set of uint32 values. The zero value is an empty, usable
// set. Not safe for concurrent use.
type Set struct {
	// slots stores key+1 so that 0 means empty; keys up to MaxUint32 fit in
	// the uint64 slot.
	slots []uint64
	count int
}

const (
	minCap = 16
	// fib is 2^64 / phi, the Fibonacci hashing multiplier.
	fib = 11400714819323198485
)

// New returns a set pre-sized for n elements.
func New(n int) *Set {
	s := &Set{}
	s.grow(capFor(n))
	return s
}

func capFor(n int) int {
	c := minCap
	for c*3 < n*4 { // keep load factor below 3/4
		c *= 2
	}
	return c
}

func (s *Set) grow(to int) {
	old := s.slots
	s.slots = make([]uint64, to)
	s.count = 0
	for _, v := range old {
		if v != 0 {
			s.insert(uint32(v - 1))
		}
	}
}

func (s *Set) insert(k uint32) {
	mask := uint64(len(s.slots) - 1)
	i := (uint64(k) * fib >> 32) & mask
	for {
		v := s.slots[i]
		if v == 0 {
			s.slots[i] = uint64(k) + 1
			s.count++
			return
		}
		if uint32(v-1) == k {
			return
		}
		i = (i + 1) & mask
	}
}

// Add inserts k, reporting whether it was absent.
func (s *Set) Add(k uint32) bool {
	if len(s.slots) == 0 {
		s.grow(minCap)
	} else if s.count*4 >= len(s.slots)*3 {
		s.grow(len(s.slots) * 2)
	}
	before := s.count
	s.insert(k)
	return s.count > before
}

// Has reports whether k is in the set.
func (s *Set) Has(k uint32) bool {
	if len(s.slots) == 0 {
		return false
	}
	mask := uint64(len(s.slots) - 1)
	i := (uint64(k) * fib >> 32) & mask
	for {
		v := s.slots[i]
		if v == 0 {
			return false
		}
		if uint32(v-1) == k {
			return true
		}
		i = (i + 1) & mask
	}
}

// Len returns the number of elements.
func (s *Set) Len() int { return s.count }

// Reset empties the set, keeping its capacity.
func (s *Set) Reset() {
	clear(s.slots)
	s.count = 0
}

// Clone returns an independent copy.
func (s *Set) Clone() *Set {
	cp := &Set{slots: make([]uint64, len(s.slots)), count: s.count}
	copy(cp.slots, s.slots)
	return cp
}

// ForEach visits every element in unspecified order; stops early when visit
// returns false.
func (s *Set) ForEach(visit func(uint32) bool) {
	for _, v := range s.slots {
		if v != 0 {
			if !visit(uint32(v - 1)) {
				return
			}
		}
	}
}

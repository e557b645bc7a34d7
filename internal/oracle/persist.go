package oracle

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/stream"
	"repro/internal/wire"
)

// Persistent is implemented by oracles whose complete mutable state can be
// serialized and later restored onto a freshly constructed oracle of the
// same configuration (same k, beta and weights — configuration travels
// through the Factory, not the payload). It is the per-checkpoint leg of
// the durable-tracker contract: core.Framework saves its checkpoint chain
// by saving each checkpoint's oracle, and a restored oracle must make
// bit-identical admission decisions on every subsequent element.
//
// All four Table 2 oracles implement Persistent: the sieve-style grids
// serialize their candidate instances (OPT guesses, seed lists, coverage
// sets, gain-bound caches) and the swap oracles their seed snapshots. Exact
// does not: no tracker can be configured with it, so nothing saves one.
type Persistent interface {
	Oracle
	// SaveState writes the oracle's state. The write is deterministic:
	// saving the same logical state twice yields identical bytes.
	SaveState(w *wire.Writer) error
	// RestoreState replaces the oracle's state with one saved by SaveState
	// on an oracle of the same kind and configuration. The receiver must be
	// freshly constructed.
	RestoreState(r *wire.Reader) error
}

// Per-oracle payload versions, bumped independently of the SIM2 container.
const (
	gridPayloadVersion = 1
	swapPayloadVersion = 1
)

// maxLen bounds decoded collection sizes; corrupt claims fail fast. The
// SIM2 container CRC makes this a second line of defense only.
const maxLen = wire.MaxLen

// SaveState implements Persistent for the sieve-style oracles. Per
// instance, in exponent order, it serializes the OPT guess (as float bits —
// thresholds must restore exactly), the admitted seed list in admission
// order (order is semantic: it is the tie-break of the best-instance
// answer), the covered users sorted and delta-coded with the accumulated
// value, and the CELF-style gain-bound cache.
//
// The value is stored as raw float bits rather than recomputed on restore:
// under weighted objectives the accumulated sum depends on the historical
// order of additions, and restoring the exact bits is what keeps a resumed
// oracle's admission thresholds — and therefore its decisions — identical
// to an uninterrupted run.
//
// The layout is instance-major although the state is not: it is the format
// snapshots have always carried, and slot numbers stay out of it. One pass
// over each table encodes every slot's member list and gain bounds into
// that slot's own run of bytes (gridSave), and each instance then writes
// its runs whole.
func (g *grid) SaveState(w *wire.Writer) error {
	sc := gridSaves.Get().(*gridSave)
	defer gridSaves.Put(sc)
	sc.transpose(g)
	w.Uvarint(gridPayloadVersion)
	w.Varint(g.elements)
	w.F64(g.m)
	w.Varint(int64(g.jLo))
	w.Uvarint(uint64(len(g.order)))
	for _, s := range g.order {
		w.F64(g.opt[s])
		w.Uvarint(uint64(len(g.seeds[s])))
		for _, u := range g.seeds[s] {
			w.Uvarint(uint64(u))
		}
		w.Uvarint(uint64(sc.members[s].n))
		w.Raw(sc.members[s].b)
		w.F64(g.value[s])
		w.Uvarint(uint64(sc.bounds[s].n))
		w.Raw(sc.bounds[s].b)
	}
	w.F64(g.bestVal)
	w.Uvarint(uint64(len(g.bestSeeds)))
	for _, s := range g.bestSeeds {
		w.Uvarint(uint64(s))
	}
	w.Bool(g.dirty)
	return w.Err()
}

// gridSave is SaveState's instance-major view of a grid: per slot, its
// covered users (ascending, delta-coded) and its gain bounds (ascending
// user, then the bound), encoded as SaveState writes them. It is scratch,
// pooled so that the saves of every checkpoint — and the sizing pass and
// writing pass of a snapshot — reuse one set of runs.
type gridSave struct {
	keys    []uint64 // a table's occupied cells, sorted by user
	members []run
	bounds  []run
}

// run is n values encoded into b.
type run struct {
	b    []byte
	n    int
	last uint32 // the last member encoded: the next one is a delta from it
}

var gridSaves = sync.Pool{New: func() any { return new(gridSave) }}

// transpose encodes the per-slot runs from g's user-major tables, visiting
// each covered user's row and each bounded user's row once.
func (sc *gridSave) transpose(g *grid) {
	if n := len(g.opt); len(sc.members) < n {
		sc.members = append(sc.members, make([]run, n-len(sc.members))...)
		sc.bounds = append(sc.bounds, make([]run, n-len(sc.bounds))...)
	}
	for s := range sc.members {
		sc.members[s] = run{b: sc.members[s].b[:0]}
		sc.bounds[s] = run{b: sc.bounds[s].b[:0]}
	}

	cov := &g.cov
	sc.keys = sc.keys[:0]
	for o := 0; o < len(cov.cells); o += cov.stride {
		if cov.cells[o] != 0 && !isZero(cov.cells[o+1:o+cov.stride]) {
			sc.keys = append(sc.keys, (cov.cells[o]-1)<<32|uint64(o)) // user, cell offset
		}
	}
	slices.Sort(sc.keys)
	for _, key := range sc.keys {
		u, o := uint32(key>>32), int(uint32(key))
		for wi, word := range cov.cells[o+1 : o+cov.stride] {
			for ; word != 0; word &= word - 1 {
				m := &sc.members[wi<<6|bits.TrailingZeros64(word)]
				m.b = wire.AppendUvarint(m.b, uint64(u-m.last))
				m.n++
				m.last = u
			}
		}
	}

	sc.keys = sc.keys[:0]
	for _, c := range g.gainUB.index {
		if c != 0 {
			sc.keys = append(sc.keys, c)
		}
	}
	slices.Sort(sc.keys) // cells lead with the user
	for _, c := range sc.keys {
		row := g.gainUB.at(c)
		for s := range g.gainUB.width {
			if ub := row.get(s); ub >= 0 {
				b := &sc.bounds[s]
				b.b = wire.AppendF64(wire.AppendUvarint(b.b, c>>32), ub)
				b.n++
			}
		}
	}
}

// RestoreState implements Persistent for the sieve-style oracles: saved
// instance i takes slot i. Gain bounds are saved as float64 whatever the
// width of the grid's rows, and a narrow grid narrows them here: a
// cardinality grid saved only integers below 65 535, which a uint16 holds.
// A larger one — a snapshot of four-byte rows may hold it — restores as no
// bound, which costs the restored grid a scan and changes no decision.
//
// A payload no grid of this configuration writes is an error, not state:
// more instances than a gain-bound row has columns, more than k seeds in a
// slot or in the best-ever set, and a negative or non-finite m, OPT guess,
// slot value or best value (a NaN m would restore, then answer 0 for good).
func (g *grid) RestoreState(r *wire.Reader) error {
	if v := r.Uvarint(); r.Err() == nil && v != gridPayloadVersion {
		return fmt.Errorf("oracle: unsupported sieve payload version %d", v)
	}
	g.elements = r.Varint()
	g.m = r.F64()
	if r.Err() == nil && !sane(g.m) {
		return fmt.Errorf("oracle: sieve payload holds m = %v", g.m)
	}
	g.jLo = int(r.Varint())
	n := r.Len(maxLen)
	if most := g.gainUB.width; r.Err() == nil && n > most {
		return fmt.Errorf("oracle: sieve payload holds %d instances, k=%d beta=%v allows %d", n, g.k, g.beta, most)
	}
	g.order = g.order[:0]
	for s := 0; s < n && r.Err() == nil; s++ {
		wi, bit := s>>6, uint64(1)<<(s&63)
		g.live[wi] |= bit
		g.opt[s] = r.F64()
		ns := r.Len(maxLen)
		if r.Err() == nil && (!sane(g.opt[s]) || ns > g.k) {
			return fmt.Errorf("oracle: sieve payload instance %d holds OPT guess %v and %d seeds, k=%d", s, g.opt[s], ns, g.k)
		}
		for j := 0; j < ns && r.Err() == nil; j++ {
			u := stream.UserID(r.Uvarint())
			g.seeds[s] = append(g.seeds[s], u)
			g.seedOf.row(uint32(u))[wi] |= bit
		}
		if len(g.seeds[s]) >= g.k {
			g.full[wi] |= bit
		}
		nm := r.Len(maxLen)
		prev := uint32(0)
		for j := 0; j < nm && r.Err() == nil; j++ {
			prev += uint32(r.Uvarint())
			g.cov.row(prev)[wi] |= bit
		}
		g.value[s] = r.F64()
		if r.Err() == nil && !sane(g.value[s]) {
			return fmt.Errorf("oracle: sieve payload instance %d holds value %v", s, g.value[s])
		}
		ng := r.Len(maxLen)
		for j := 0; j < ng && r.Err() == nil; j++ {
			k := uint32(r.Uvarint())
			row := g.gainUB.find(k)
			if !row.ok() {
				row = g.gainUB.insert(k)
			}
			ub := r.F64()
			if !(ub >= 0) && r.Err() == nil {
				return fmt.Errorf("oracle: sieve payload holds gain bound %v for user %d", ub, k)
			}
			row.set(s, ub)
		}
		g.thr[s] = g.threshold(s)
		g.order = append(g.order, s)
	}
	g.bestVal = r.F64()
	nb := r.Len(maxLen)
	if r.Err() == nil && (!sane(g.bestVal) || nb > g.k) {
		return fmt.Errorf("oracle: sieve payload holds best value %v over %d seeds, k=%d", g.bestVal, nb, g.k)
	}
	g.bestSeeds = g.bestSeeds[:0]
	for i := 0; i < nb && r.Err() == nil; i++ {
		g.bestSeeds = append(g.bestSeeds, stream.UserID(r.Uvarint()))
	}
	g.dirty = r.Bool()
	if err := r.Err(); err != nil {
		return fmt.Errorf("oracle: restoring sieve grid: %w", err)
	}
	return nil
}

// SaveState implements Persistent for the swap oracles: the seed snapshots
// (user plus admission-time influence set, in slot order — slot identity
// matters to BlogWatch's min-weight victim scan) and the running value.
func (s *Swap) SaveState(w *wire.Writer) error {
	w.Uvarint(swapPayloadVersion)
	w.Varint(s.elements)
	w.F64(s.value)
	w.Uvarint(uint64(len(s.seeds)))
	for _, sd := range s.seeds {
		w.Uvarint(uint64(sd.user))
		w.Uvarint(uint64(len(sd.set)))
		for _, v := range sd.set {
			w.Uvarint(uint64(v))
		}
	}
	return w.Err()
}

// RestoreState implements Persistent for the swap oracles. More than k
// seeds, or a negative or non-finite value, is a payload no swap oracle of
// this k writes, and an error.
func (s *Swap) RestoreState(r *wire.Reader) error {
	if v := r.Uvarint(); r.Err() == nil && v != swapPayloadVersion {
		return fmt.Errorf("oracle: unsupported swap payload version %d", v)
	}
	s.elements = r.Varint()
	s.value = r.F64()
	n := r.Len(maxLen)
	if r.Err() == nil && (!sane(s.value) || n > s.k) {
		return fmt.Errorf("oracle: swap payload holds value %v over %d seeds, k=%d", s.value, n, s.k)
	}
	s.seeds = make([]swapSeed, 0, min(n, 1<<16))
	for i := 0; i < n && r.Err() == nil; i++ {
		sd := swapSeed{user: stream.UserID(r.Uvarint())}
		ns := r.Len(maxLen)
		sd.set = make([]stream.UserID, 0, min(ns, 1<<20))
		for j := 0; j < ns && r.Err() == nil; j++ {
			sd.set = append(sd.set, stream.UserID(r.Uvarint()))
		}
		s.seeds = append(s.seeds, sd)
	}
	s.dirtyIDs = true
	if err := r.Err(); err != nil {
		return fmt.Errorf("oracle: restoring swap oracle: %w", err)
	}
	return nil
}

// sane reports whether x is a value an oracle can hold: neither negative nor
// infinite nor NaN.
func sane(x float64) bool { return x >= 0 && x <= math.MaxFloat64 }

package oracle

import (
	"cmp"
	"fmt"
	"slices"

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
// snapshots have always carried, and slot numbers stay out of it. One sweep
// of cov yields every covered user's row in ascending user order; each
// instance's member list is that sequence filtered by the instance's bit,
// and its gain bounds the bounded users' rows filtered by its column.
func (g *grid) SaveState(w *wire.Writer) error {
	w.Uvarint(gridPayloadVersion)
	w.Varint(g.elements)
	w.F64(g.m)
	w.Varint(int64(g.jLo))
	w.Uvarint(uint64(len(g.order)))
	users, rows := g.cov.sorted()
	words := g.cov.stride - 1
	bounded := slices.DeleteFunc(slices.Clone(g.gainUB.index), func(c uint64) bool { return c == 0 })
	slices.Sort(bounded) // cells lead with the user: ascending user order
	for _, s := range g.order {
		w.F64(g.opt[s])
		w.Uvarint(uint64(len(g.seeds[s])))
		for _, u := range g.seeds[s] {
			w.Uvarint(uint64(u))
		}
		wi, bit := s>>6, uint64(1)<<(s&63)
		n := 0
		for i := range users {
			if rows[i*words+wi]&bit != 0 {
				n++
			}
		}
		w.Uvarint(uint64(n))
		prev := uint32(0)
		for i, u := range users {
			if rows[i*words+wi]&bit != 0 {
				w.Uvarint(uint64(u - prev))
				prev = u
			}
		}
		w.F64(g.value[s])
		n = 0
		for _, c := range bounded {
			if g.gainUB.at(c)[s] >= 0 {
				n++
			}
		}
		w.Uvarint(uint64(n))
		for _, c := range bounded {
			if ub := g.gainUB.at(c)[s]; ub >= 0 {
				w.Uvarint(c >> 32)
				w.F64(ub)
			}
		}
	}
	w.F64(g.bestVal)
	w.Uvarint(uint64(len(g.bestSeeds)))
	for _, s := range g.bestSeeds {
		w.Uvarint(uint64(s))
	}
	w.Bool(g.dirty)
	return w.Err()
}

// sorted returns the users with a non-zero row in ascending order, and
// their rows concatenated in the same order.
func (t *rowTable) sorted() (users []uint32, rows []uint64) {
	cells := make([]int, 0, t.count) // offsets of the occupied, non-zero cells
	for o := 0; o < len(t.cells); o += t.stride {
		if t.cells[o] != 0 && !isZero(t.cells[o+1:o+t.stride]) {
			cells = append(cells, o)
		}
	}
	slices.SortFunc(cells, func(a, b int) int { return cmp.Compare(t.cells[a], t.cells[b]) })
	users = make([]uint32, len(cells))
	rows = make([]uint64, 0, len(cells)*(t.stride-1))
	for i, o := range cells {
		users[i] = uint32(t.cells[o] - 1)
		rows = append(rows, t.cells[o+1:o+t.stride]...)
	}
	return users, rows
}

// RestoreState implements Persistent for the sieve-style oracles: saved
// instance i takes slot i.
func (g *grid) RestoreState(r *wire.Reader) error {
	if v := r.Uvarint(); r.Err() == nil && v != gridPayloadVersion {
		return fmt.Errorf("oracle: unsupported sieve payload version %d", v)
	}
	g.elements = r.Varint()
	g.m = r.F64()
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
		ng := r.Len(maxLen)
		for j := 0; j < ng && r.Err() == nil; j++ {
			k := uint32(r.Uvarint())
			row := g.gainUB.find(k)
			if row == nil {
				row = g.gainUB.insert(k)
			}
			if row[s] = r.F64(); !(row[s] >= 0) && r.Err() == nil {
				return fmt.Errorf("oracle: sieve payload holds gain bound %v for user %d", row[s], k)
			}
		}
		g.thr[s] = g.threshold(s)
		g.order = append(g.order, s)
	}
	g.bestVal = r.F64()
	nb := r.Len(maxLen)
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

// RestoreState implements Persistent for the swap oracles.
func (s *Swap) RestoreState(r *wire.Reader) error {
	if v := r.Uvarint(); r.Err() == nil && v != swapPayloadVersion {
		return fmt.Errorf("oracle: unsupported swap payload version %d", v)
	}
	s.elements = r.Varint()
	s.value = r.F64()
	n := r.Len(maxLen)
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

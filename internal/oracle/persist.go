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
// sets) and the swap oracles their seed snapshots. Exact
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
// A grid reads gridPayloadV1 too: the instance-major layout snapshots
// carried before the grid wrote its tables as memory holds them.
const (
	gridPayloadVersion = 2
	gridPayloadV1      = 1
	swapPayloadVersion = 1
)

// maxLen bounds decoded collection sizes; corrupt claims fail fast. The
// SIM2 container CRC makes this a second line of defense only.
const maxLen = wire.MaxLen

// SaveState implements Persistent for the sieve-style oracles. Per
// instance, in exponent order, it serializes the slot the instance holds,
// its OPT guess (as float bits — thresholds must restore exactly), its seed
// list in admission order (order is semantic: it is the tie-break of the
// best-instance answer) and its accumulated value. The cov table follows as
// memory holds it: its non-zero rows, ascending by user (the bytes are then
// canonical whatever order the table filled in), each a delta-coded user
// and the row's words.
//
// The value is stored as raw float bits rather than recomputed on restore:
// under weighted objectives the accumulated sum depends on the historical
// order of additions, and restoring the exact bits is what keeps a resumed
// oracle's admission thresholds — and therefore its decisions — identical
// to an uninterrupted run.
//
// Nothing else is saved. seedOf is the seed lists again, and the gain
// bounds are a cache that decides nothing: a restored grid without them
// scans where the uninterrupted one would have read a bound, and admits
// and rejects exactly as it does.
func (g *grid) SaveState(w *wire.Writer) error {
	w.Uvarint(gridPayloadVersion)
	w.Varint(g.elements)
	w.F64(g.m)
	w.Varint(int64(g.jLo))
	w.Uvarint(uint64(len(g.order)))
	for _, s := range g.order {
		w.Uvarint(uint64(s))
		w.F64(g.opt[s])
		w.Uvarint(uint64(len(g.seeds[s])))
		for _, u := range g.seeds[s] {
			w.Uvarint(uint64(u))
		}
		w.F64(g.value[s])
	}

	keys := rowKeys.Get().(*[]uint64)
	defer rowKeys.Put(keys)
	cov := &g.cov
	rows := (*keys)[:0]
	for o := 0; o < len(cov.cells); o += cov.stride {
		if cov.cells[o] != 0 && !isZero(cov.cells[o+1:o+cov.stride]) {
			rows = append(rows, (cov.cells[o]-1)<<32|uint64(o)) // user, cell offset
		}
	}
	slices.Sort(rows)
	*keys = rows
	w.Uvarint(uint64(len(rows)))
	prev := uint64(0) // one past the last row's user: the first row's delta is its user + 1
	for _, key := range rows {
		next := key>>32 + 1
		w.Uvarint(next - prev)
		prev = next
		o := int(uint32(key))
		for _, word := range cov.cells[o+1 : o+cov.stride] {
			w.U64(word)
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

// rowKeys holds SaveState's scratch: the cov rows to write, sorted.
var rowKeys = sync.Pool{New: func() any { return new([]uint64) }}

// RestoreState implements Persistent for the sieve-style oracles. A version
// 2 payload puts every instance back in its saved slot; open takes the
// lowest free one, so the restored grid goes on to allocate slots as the
// uninterrupted one does and saves the same bytes. A version 1 payload puts
// saved instance i in slot i, with its sorted, delta-coded members, and its
// gain bounds are dropped.
//
// A payload no grid of this configuration writes is an error, not state:
// more instances than a gain-bound row has columns, a slot at or past that
// width or held twice, more than k seeds in a slot or in the best-ever set,
// a seed twice in one slot, a negative or non-finite m, OPT guess, slot
// value, best value or (version 1) gain bound (a NaN m would restore, then
// answer 0 for good), a lowest guess other than the one retune derives from
// a positive m, cov rows that do not strictly ascend by user, a zero row or
// a bit in a slot no instance holds, and — on a cardinality grid, whose
// slot value is the count of users it covers — a slot value that is not
// that count.
func (g *grid) RestoreState(r *wire.Reader) error {
	v := r.Uvarint()
	if r.Err() == nil && v != gridPayloadVersion && v != gridPayloadV1 {
		return fmt.Errorf("oracle: unsupported sieve payload version %d", v)
	}
	g.elements = r.Varint()
	g.m = r.F64()
	if r.Err() == nil && !sane(g.m) {
		return fmt.Errorf("oracle: sieve payload holds m = %v", g.m)
	}
	g.jLo = int(r.Varint())
	if lo, _ := g.guesses(); r.Err() == nil && g.m > 0 && g.jLo != lo {
		return fmt.Errorf("oracle: sieve payload holds lowest guess exponent %d, m = %v gives %d", g.jLo, g.m, lo)
	}
	n := r.Len(maxLen)
	if most := g.gainUB.width; r.Err() == nil && n > most {
		return fmt.Errorf("oracle: sieve payload holds %d instances, k=%d beta=%v allows %d", n, g.k, g.beta, most)
	}
	covered := make([]int, len(g.opt)) // per slot, the users whose cov row holds its bit
	g.order = g.order[:0]
	for i := 0; i < n && r.Err() == nil; i++ {
		s := i
		if v == gridPayloadVersion {
			s = r.Len(maxLen)
			if r.Err() == nil && (s >= g.gainUB.width || g.live[s>>6]&(1<<(s&63)) != 0) {
				return fmt.Errorf("oracle: sieve payload instance %d holds slot %d: taken, or past the %d a grid has", i, s, g.gainUB.width)
			}
		}
		wi, bit := s>>6, uint64(1)<<(s&63)
		g.live[wi] |= bit
		g.opt[s] = r.F64()
		ns := r.Len(maxLen)
		if r.Err() == nil && (!sane(g.opt[s]) || ns > g.k) {
			return fmt.Errorf("oracle: sieve payload instance %d holds OPT guess %v and %d seeds, k=%d", i, g.opt[s], ns, g.k)
		}
		for j := 0; j < ns && r.Err() == nil; j++ {
			u := stream.UserID(r.Uvarint())
			row := g.seedOf.row(uint32(u))
			if row[wi]&bit != 0 && r.Err() == nil {
				return fmt.Errorf("oracle: sieve payload instance %d holds seed %d twice", i, u)
			}
			g.seeds[s] = append(g.seeds[s], u)
			row[wi] |= bit
		}
		if len(g.seeds[s]) >= g.k {
			g.full[wi] |= bit
		}
		if v == gridPayloadV1 {
			nm, u := r.Len(maxLen), uint32(0)
			for j := 0; j < nm && r.Err() == nil; j++ {
				u += uint32(r.Uvarint())
				if row := g.cov.row(u); row[wi]&bit == 0 {
					row[wi] |= bit
					covered[s]++
				}
			}
		}
		g.value[s] = r.F64()
		if r.Err() == nil && !sane(g.value[s]) {
			return fmt.Errorf("oracle: sieve payload instance %d holds value %v", i, g.value[s])
		}
		if v == gridPayloadV1 { // the gain bounds: checked, then dropped
			ng := r.Len(maxLen)
			for j := 0; j < ng && r.Err() == nil; j++ {
				if u, ub := r.Uvarint(), r.F64(); !(ub >= 0) && r.Err() == nil {
					return fmt.Errorf("oracle: sieve payload holds gain bound %v for user %d", ub, u)
				}
			}
		}
		g.order = append(g.order, s)
	}
	rows := 0
	if v == gridPayloadVersion {
		rows = r.Len(maxLen)
	}
	for i, next := 0, uint64(0); i < rows && r.Err() == nil; i++ { // next: one past the last row's user
		d := r.Uvarint()
		if r.Err() == nil && (d == 0 || d > math.MaxUint32+1-next) {
			return fmt.Errorf("oracle: sieve payload cov row %d: users do not strictly ascend", i)
		}
		next += d
		row, set, stray := g.cov.row(uint32(next-1)), uint64(0), uint64(0)
		for wi := range row {
			row[wi] = r.U64()
			set, stray = set|row[wi], stray|row[wi]&^g.live[wi]
			for word := row[wi]; word != 0; word &= word - 1 {
				covered[wi<<6|bits.TrailingZeros64(word)]++
			}
		}
		if r.Err() == nil && (set == 0 || stray != 0) {
			return fmt.Errorf("oracle: sieve payload cov row of user %d holds %x, live slots %x", next-1, row, g.live)
		}
	}
	for i, s := range g.order {
		if r.Err() == nil && g.w == nil && g.value[s] != float64(covered[s]) {
			return fmt.Errorf("oracle: sieve payload instance %d holds value %v over %d covered users", i, g.value[s], covered[s])
		}
		g.thr[s] = g.threshold(s)
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

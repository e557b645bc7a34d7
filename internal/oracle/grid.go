package oracle

import (
	"math"
	"math/bits"
	"slices"

	"repro/internal/stream"
	"repro/internal/submod"
)

// fib is 2^64 / phi, the Fibonacci hashing multiplier (as in uintset).
const fib = 11400714819323198485

// rowTable is an open-addressing hash map from a user to a fixed-width bit
// row, bit s standing for instance slot s of the owning grid. Key and row
// are interleaved — cell i is cells[i*stride : (i+1)*stride], word 0 holding
// key+1 (0 = empty) and the rest the row — so a probe and the row it finds
// share a cache line. Entries are never deleted: a row whose bits were all
// cleared stays behind as a zero row, which reads the same as absent.
type rowTable struct {
	stride int // 1 + words per row
	cells  []uint64
	mask   uint64 // cell count − 1
	count  int
}

const minRowCells = 16

func newRowTable(words int) rowTable {
	return rowTable{stride: 1 + words, cells: make([]uint64, minRowCells*(1+words)), mask: minRowCells - 1}
}

// find returns k's row (a view into the table, valid until the next row
// call), or nil when k has none.
func (t *rowTable) find(k uint32) []uint64 {
	key := uint64(k) + 1
	for i := (uint64(k) * fib >> 32) & t.mask; ; i = (i + 1) & t.mask {
		o := int(i) * t.stride
		switch t.cells[o] {
		case key:
			return t.cells[o+1 : o+t.stride]
		case 0:
			return nil
		}
	}
}

// row returns k's row, inserting a zero row when k has none. The view is
// valid until the next row call.
func (t *rowTable) row(k uint32) []uint64 {
	if uint64(t.count)*4 >= (t.mask+1)*3 { // keep load factor below 3/4
		t.grow()
	}
	key := uint64(k) + 1
	for i := (uint64(k) * fib >> 32) & t.mask; ; i = (i + 1) & t.mask {
		o := int(i) * t.stride
		switch t.cells[o] {
		case 0:
			t.cells[o] = key
			t.count++
			fallthrough
		case key:
			return t.cells[o+1 : o+t.stride]
		}
	}
}

func (t *rowTable) grow() {
	old := t.cells
	t.cells = make([]uint64, 2*len(old))
	t.mask = 2*t.mask + 1
	t.count = 0
	for o := 0; o < len(old); o += t.stride {
		if old[o] != 0 {
			copy(t.row(uint32(old[o]-1)), old[o+1:o+t.stride])
		}
	}
}

// reset empties the table, keeping its memory unless it is oversized.
func (t *rowTable) reset() {
	if oversized(int(t.mask)+1, t.count) {
		*t = newRowTable(t.stride - 1)
		return
	}
	clear(t.cells)
	t.count = 0
}

// oversized reports whether a table being reset was under a quarter
// full (tiny ones aside): it was grown by an earlier, longer-lived owner of
// the grid. Reset gives such memory back rather than carry it through the
// short lives most checkpoints have — kept, every recycled grid ratchets up
// to the largest any checkpoint ever needed, which costs resident memory
// and time (retune sweeps whole tables).
func oversized(capacity, used int) bool { return capacity > 4*used+minRowCells }

// clearBits clears the bits of mask in every row.
func (t *rowTable) clearBits(mask []uint64) {
	for o := 0; o < len(t.cells); o += t.stride {
		for wi, m := range mask {
			t.cells[o+1+wi] &^= m
		}
	}
}

// appendSet appends to dst every key whose row has a bit set.
func (t *rowTable) appendSet(dst []stream.UserID) []stream.UserID {
	for o := 0; o < len(t.cells); o += t.stride {
		if t.cells[o] != 0 && !isZero(t.cells[o+1:o+t.stride]) {
			dst = append(dst, stream.UserID(t.cells[o]-1))
		}
	}
	return dst
}

// boundTable maps a user to a fixed-width row of gain bounds, entry s
// belonging to instance slot s of the owning grid; a negative entry means
// "no bound". Rows are packed in arrival order, boundChunk to an allocation,
// and found through a small open-addressing index, so the table's memory is
// its rows — a row is width × 1 or width × 8 bytes, an index cell 8 — with
// neither load-factor slack nor, growing a chunk at a time, copies left as
// garbage. Unlike the bit-row tables it keeps nothing across reset: a chunk
// costs one allocation and no copy to get back, and rows kept from a
// longer-lived owner were a third to a half more memory than the live
// checkpoints' rows.
//
// A bound is a uint8 when the table is narrow — the grid's objective is
// cardinality — and a float64 otherwise. Cardinality gains are member
// counts, integers a uint8 holds exactly below noBound8; a narrow cell
// rounds a fractional bound up, and a bound of noBound8 or more — a gain of
// 255 users or more — stores noBound8, which reads back as no bound. Either
// way a decision the bound makes is one the wide table makes: a rounded-up
// bound still bounds the gain, and a missing one only sends the slot to
// scan the influence set, which finds the gain itself. A rejected gain is
// below the slot's threshold, so a bound only stays in a cell when the
// threshold it must stay under is small; on the benchmark's bulk stream no
// store reaches 255. Weighted bounds are arbitrary sums that a uint8 cannot
// hold: weighted tables stay wide.
type boundTable struct {
	width    int         // bounds per row
	narrow   bool        // rows are uint8
	chunks8  [][]uint8   // narrow: row r is chunks8[r/boundChunk][r%boundChunk*width:][:width]
	chunks64 [][]float64 // wide: the same, in float64
	n        int         // rows in use
	index    []uint64    // user<<32 | r+1; 0 = empty
}

const boundChunk = 8

// noBound8 is a narrow cell holding no bound.
const noBound8 = math.MaxUint8

func newBoundTable(width int, narrow bool) boundTable {
	return boundTable{width: width, narrow: narrow, index: make([]uint64, minRowCells)}
}

// boundRow is a view of one user's row: u8 in a narrow table, f64 in a
// wide one, neither when the user has none.
type boundRow struct {
	u8  []uint8
	f64 []float64
}

// ok reports whether the row exists.
func (r *boundRow) ok() bool { return r.u8 != nil || r.f64 != nil }

// get returns slot s's bound, negative for none.
func (r *boundRow) get(s int) float64 {
	if r.u8 != nil {
		if c := r.u8[s]; c != noBound8 {
			return float64(c)
		}
		return -1
	}
	return r.f64[s]
}

// set stores v, which is not negative, as slot s's bound. A narrow cell
// rounds v up to an integer, and stores no bound from noBound8 up.
func (r *boundRow) set(s int, v float64) {
	if r.u8 != nil {
		c := uint8(noBound8)
		if v < noBound8 {
			if c = uint8(v); float64(c) < v {
				c++
			}
		}
		r.u8[s] = c
		return
	}
	r.f64[s] = v
}

// find returns k's row, which is not ok when k has none.
func (t *boundTable) find(k uint32) boundRow {
	mask := uint64(len(t.index) - 1)
	for i := (uint64(k) * fib >> 32) & mask; ; i = (i + 1) & mask {
		switch c := t.index[i]; {
		case c == 0:
			return boundRow{}
		case uint32(c>>32) == k:
			return t.at(c)
		}
	}
}

// at returns the row an index cell names.
func (t *boundTable) at(cell uint64) boundRow {
	r := int(uint32(cell)) - 1
	c, o := r/boundChunk, r%boundChunk*t.width
	if t.narrow {
		return boundRow{u8: t.chunks8[c][o : o+t.width]}
	}
	return boundRow{f64: t.chunks64[c][o : o+t.width]}
}

// insert appends a row of no bounds for k, which must have none, and returns
// it.
func (t *boundTable) insert(k uint32) boundRow {
	if t.n == (len(t.chunks8)+len(t.chunks64))*boundChunk {
		if t.narrow {
			t.chunks8 = append(t.chunks8, make([]uint8, boundChunk*t.width))
		} else {
			t.chunks64 = append(t.chunks64, make([]float64, boundChunk*t.width))
		}
	}
	if (t.n+1)*4 >= len(t.index)*3 { // keep load factor below 3/4
		old := t.index
		t.index = make([]uint64, 2*len(old))
		for _, c := range old {
			if c != 0 {
				t.place(c)
			}
		}
	}
	t.n++
	cell := uint64(k)<<32 | uint64(t.n)
	t.place(cell)
	row := t.at(cell)
	for s := range row.u8 {
		row.u8[s] = noBound8
	}
	for s := range row.f64 {
		row.f64[s] = -1
	}
	return row
}

func (t *boundTable) place(cell uint64) {
	mask := uint64(len(t.index) - 1)
	i := ((cell >> 32) * fib >> 32) & mask
	for t.index[i] != 0 {
		i = (i + 1) & mask
	}
	t.index[i] = cell
}

// reset empties the table and lets its memory go.
func (t *boundTable) reset() { *t = newBoundTable(t.width, t.narrow) }

// clearSlots removes the bounds of the slots in mask from every row. One of
// the two chunk lists is empty.
func (t *boundTable) clearSlots(mask []uint64) {
	for wi, m := range mask {
		for ; m != 0; m &= m - 1 {
			s := wi<<6 | bits.TrailingZeros64(m)
			for _, chunk := range t.chunks8 {
				for o := s; o < len(chunk); o += t.width {
					chunk[o] = noBound8
				}
			}
			for _, chunk := range t.chunks64 {
				for o := s; o < len(chunk); o += t.width {
					chunk[o] = -1
				}
			}
		}
	}
}

// grid is the machinery shared by the two sieve-style oracles
// (SieveStreaming and ThresholdStream): OPT guesses (1+β)^j maintained on a
// grid over [m, 2km] for the largest observed singleton value m, one
// candidate solution ("instance") per guess, and a monotone best-ever
// answer cache. The only algorithmic difference between the two oracles is
// the admission threshold, selected by flat: SieveStreaming admits an
// element when the marginal gain clears the residual threshold
// (opt/2 − f(CX)) / (k − |CX|) (paper Eq. 2), ThresholdStream uses the flat
// opt/(2k).
//
// The state is user-major. Every element is offered to every instance, so
// instead of one hash set per instance the grid keeps one table per
// question — seedOf: in which instances is this user a seed; cov: which
// instances' solutions cover this user — whose rows hold one bit per
// instance slot. One probe answers the question for all instances at once:
// an element costs one seedOf probe, one row-OR for the seed merge, one cov
// probe for its Latest member, one gainUB probe for its user's row of gain
// bounds, a sweep over the cached thresholds and that row, and — only when
// some instance cannot decide from its bound — one cov probe per
// influence-set member shared by every instance still scanning. Per-instance
// scalars live in slot-indexed arrays.
//
// A slot is the bit position an instance occupies for its lifetime. The
// live instances form a contiguous exponent range [jLo, jLo+len(order)),
// order mapping each to its slot; retune retires the slots whose guess left
// [m, 2km] — one sweep each clears their bit from both tables and their
// column from the gain bounds — and hands them to the guesses entering it.
// Slot numbers never reach an answer: refresh and Candidates walk order,
// and instances do not interact, so every admission decision equals the one
// an instance with private sets would make. SaveState writes them, so a
// restored grid holds each instance where the saved one did.
type grid struct {
	k    int
	beta float64
	w    submod.Weights
	flat bool // true = ThresholdStream's opt/(2k); false = Sieve's residual

	m     float64 // max singleton value observed
	order []int   // order[i] = slot of the instance guessing (1+β)^(jLo+i)
	spare []int   // retune builds the next order here, then swaps the two
	jLo   int
	logB  float64 // log(1+beta), cached

	seedOf rowTable // user → slots holding the user as a seed
	cov    rowTable // user → slots whose solution covers the user
	live   []uint64 // slots in use
	full   []uint64 // live slots holding k seeds

	// Per-slot state. thr caches the admission threshold: it moves only
	// when the slot's value or seed count does, which is far rarer than
	// the per-element test that reads it.
	opt   []float64
	value []float64
	thr   []float64
	seeds [][]stream.UserID
	// gainUB caches, per non-seed candidate and slot, an upper bound on the
	// candidate's marginal gain: the gain its last scan in the slot found,
	// plus the weight of every Latest member offered since that the slot
	// did not cover at the time. Between two elements for the same user the
	// influence set gains at most the element's Latest member (the Element
	// contract), and coverage only grows, so the sum bounds the true gain;
	// thresholds never rise, so a bound below one keeps rejecting without a
	// scan over the influence set (the CELF idea applied inside a sieve
	// instance). It is user-major like seedOf and cov — one probe per
	// element finds the user's bounds in every slot — and a row is as wide
	// as the most instances the grid ever holds, not the 64·W slots of a bit
	// row. Only users some scan rejected have a row: on the benchmark's bulk
	// stream that is 22–373 users per checkpoint and, at the end of a
	// five-window run, 5 451 rows of 50 bounds over a tracker's 29
	// checkpoints — 0.27 MB at 1 byte a bound, the width of a cardinality
	// objective (boundTable), where a bound of 255 or more is kept as none
	// and costs a scan. One sparse map per slot took 3.3 cells a bound
	// and cost an element 18 hash probes, one per slot that passed the
	// singleton test or ended a scan undecided (ARCHITECTURE.md, "The gain
	// bounds are rows").
	gainUB boundTable

	// Scratch, per element (und, adm, gain) and per retune (retired).
	zero    []uint64  // the empty mask
	und     []uint64  // slots still scanning the element
	adm     []uint64  // slots admitting the element
	retired []uint64  // slots retune is retiring
	gain    []float64 // per-slot marginal gain accumulated by the scan

	// Work counters (Stats). Only elements is part of the saved state.
	elements    int64
	scans       int64 // elements whose influence set was scanned
	scanMembers int64 // members probed by those scans
	slotVisits  int64 // slots the threshold sweep visited

	// bestVal/bestSeeds remember the best solution ever observed (kept
	// monotone for SIC's Lemma 2: instance deletion during retune could
	// otherwise make Value() dip; the remembered seed set stays valid
	// because influence sets only grow within a checkpoint's suffix).
	// dirty marks bestVal stale: some slot's value has risen above it since
	// the last refresh.
	bestVal   float64
	bestSeeds []stream.UserID
	dirty     bool

	// pool caches Candidates, built when poolVer was poolAt. poolVer counts
	// the changes to the pool: a seed admitted to a slot, slots retired by
	// retune, a new best-ever seed set, Reset. None of the three is saved
	// state: RestoreState only ever fills a fresh grid, whose cache is
	// unbuilt (poolAt 0, poolVer 1).
	pool            []stream.UserID
	poolVer, poolAt uint64
}

func newGrid(k int, beta float64, w submod.Weights, flat bool) grid {
	if k < 1 {
		panic("oracle: k must be >= 1")
	}
	if beta <= 0 || beta >= 1 {
		panic("oracle: beta must be in (0, 1)")
	}
	logB := math.Log1p(beta)
	// retune keeps at most ⌊log₁₊β 2k⌋ + 2 guesses alive (its rounding
	// slack included), and retires before it allocates.
	most := int(math.Floor(math.Log(2*float64(k))/logB+1e-9)) + 2
	words := (most + 63) / 64
	slots := 64 * words
	masks := make([]uint64, 6*words)
	orders := make([]int, 2*slots)
	return grid{
		k: k, beta: beta, w: w, flat: flat, logB: logB,
		order:   orders[:0:slots],
		spare:   orders[slots:slots],
		seedOf:  newRowTable(words),
		cov:     newRowTable(words),
		live:    masks[0*words : 1*words : 1*words],
		full:    masks[1*words : 2*words : 2*words],
		zero:    masks[2*words : 3*words : 3*words],
		und:     masks[3*words : 4*words : 4*words],
		adm:     masks[4*words : 5*words : 5*words],
		retired: masks[5*words : 6*words : 6*words],
		opt:     make([]float64, slots),
		value:   make([]float64, slots),
		thr:     make([]float64, slots),
		gain:    make([]float64, slots),
		seeds:   make([][]stream.UserID, slots),
		gainUB:  newBoundTable(most, w == nil),
		poolVer: 1,
	}
}

func (g *grid) weight(v stream.UserID) float64 {
	if g.w == nil {
		return 1
	}
	return g.w.Weight(v)
}

// singleton returns f({e}): the element's full value, an upper bound on its
// marginal gain for every instance.
func (g *grid) singleton(e Element) float64 {
	if g.w == nil {
		return float64(len(e.Prefix))
	}
	v := 0.0
	for _, c := range e.Prefix {
		v += g.w.Weight(c.V)
	}
	return v
}

// threshold computes slot s's admission threshold from its current state.
// A full slot's residual divides by zero; full slots are never tested.
func (g *grid) threshold(s int) float64 {
	if g.flat {
		return g.opt[s] / (2 * float64(g.k))
	}
	return (g.opt[s]/2 - g.value[s]) / float64(g.k-len(g.seeds[s]))
}

// Process implements Oracle.
func (g *grid) Process(e Element) {
	g.elements++
	sv := g.singleton(e)
	if sv == 0 {
		return
	}
	if sv > g.m {
		g.m = sv
		g.retune()
	}
	g.feed(e, sv)
}

// Reset returns the grid to its freshly constructed state — every answer,
// every future admission decision and the SaveState bytes equal a new
// grid's — while keeping the bit-row tables and seed lists it grew (those
// not oversized; the gain-bound rows go), so a checkpoint framework can hand
// a dead checkpoint's oracle to the next checkpoint instead of growing one
// from nothing.
func (g *grid) Reset() {
	g.m, g.jLo, g.order = 0, 0, g.order[:0]
	g.seedOf.reset()
	g.cov.reset()
	g.gainUB.reset()
	clear(g.live)
	clear(g.full)
	// Retired slots were emptied by retune; the live ones still hold state.
	// value is the only per-slot scalar read before open rewrites it.
	clear(g.value)
	for s := range g.seeds {
		g.seeds[s] = g.seeds[s][:0]
	}
	g.elements, g.scans, g.scanMembers, g.slotVisits = 0, 0, 0, 0
	g.bestVal, g.bestSeeds, g.dirty = 0, g.bestSeeds[:0], false
	g.poolVer++
}

// retune maintains the instance range after m grew: instances whose OPT
// guess fell below m are retired (they can no longer be the right guess)
// and their slots reused for the guesses up to 2km. Lazy instantiation
// preserves the guarantee because a fresh instance only needs to see
// elements arriving after the point where its guess became plausible
// (Badanidiyuru et al. §4). The monotone best-ever cache keeps Value() from
// dipping when instances are dropped.
func (g *grid) retune() {
	g.refresh() // bank the current best before dropping instances
	lo, hi := g.guesses()
	next := g.spare[:hi-lo+1]
	for i := range next {
		next[i] = -1
	}
	retired := g.retired
	clear(retired)
	for old, s := range g.order {
		if j := old + g.jLo; j < lo || j > hi {
			retired[s>>6] |= 1 << (s & 63)
			g.live[s>>6] &^= 1 << (s & 63)
			g.full[s>>6] &^= 1 << (s & 63)
			g.seeds[s] = g.seeds[s][:0]
			g.value[s] = 0
		} else {
			next[j-lo] = s
		}
	}
	if !isZero(retired) {
		g.seedOf.clearBits(retired)
		g.cov.clearBits(retired)
		g.gainUB.clearSlots(retired)
		g.poolVer++
	}
	for j := lo; j <= hi; j++ {
		if next[j-lo] < 0 {
			next[j-lo] = g.open(math.Pow(1+g.beta, float64(j)))
		}
	}
	g.order, g.spare, g.jLo = next, g.order[:0], lo
}

// guesses returns the exponent range [lo, hi] of the OPT guesses (1+β)^j
// in [m, 2km]: the instances retune keeps alive for the current m.
func (g *grid) guesses() (lo, hi int) {
	lo = int(math.Ceil(math.Log(g.m)/g.logB - 1e-9))
	hi = int(math.Floor(math.Log(2*float64(g.k)*g.m)/g.logB + 1e-9))
	return lo, hi
}

// open claims the lowest free slot for a fresh instance guessing opt. The
// slot is below the width of a gain-bound row: no more instances than that
// are ever live, and the lowest free slot is at most their count.
func (g *grid) open(opt float64) int {
	for wi, l := range g.live {
		if free := ^l; free != 0 {
			b := bits.TrailingZeros64(free)
			s := wi<<6 | b
			if s >= g.gainUB.width {
				break
			}
			g.live[wi] |= 1 << b
			g.opt[s] = opt
			g.thr[s] = g.threshold(s)
			return s
		}
	}
	panic("oracle: sieve grid out of instance slots")
}

func isZero(mask []uint64) bool {
	for _, m := range mask {
		if m != 0 {
			return false
		}
	}
	return true
}

// cover adds v to the solution of every slot in mask, crediting v's weight
// to the slots that did not cover it yet. Slots are credited one member at
// a time, members in the caller's order — the accumulation order a private
// per-instance coverage set would see, so weighted values match bit for
// bit.
func (g *grid) cover(v stream.UserID, mask []uint64) {
	row := g.cov.row(uint32(v))
	for wi, m := range mask {
		fresh := m &^ row[wi]
		if fresh == 0 {
			continue
		}
		row[wi] |= fresh
		w := g.weight(v)
		for ; fresh != 0; fresh &= fresh - 1 {
			s := wi<<6 | bits.TrailingZeros64(fresh)
			g.value[s] += w
			g.thr[s] = g.threshold(s)
			if g.value[s] > g.bestVal {
				g.dirty = true
			}
		}
	}
}

// feed offers the element to every live instance. singleton, the element's
// full value, upper-bounds its marginal gain and lets instances with high
// thresholds reject without scanning coverage.
func (g *grid) feed(e Element, singleton float64) {
	u := uint32(e.User)
	seedIn := g.seedOf.find(u)
	if seedIn == nil {
		seedIn = g.zero
	} else if !isZero(seedIn) {
		// e.User is already a seed in these slots: its influence set grew,
		// merge the coverage. No threshold test — the candidate stores
		// users, so this costs no budget and only increases the value
		// (Theorem 2's monotonicity). With Latest metadata the merge is a
		// single row-OR.
		if e.LatestValid {
			g.cover(e.Latest, seedIn)
		} else {
			for _, c := range e.Prefix {
				g.cover(c.V, seedIn)
			}
		}
	}

	// Threshold sweep over the slots that could still admit e.User: the
	// singleton test, then the cached gain bound, leave in und the slots
	// that have to scan the influence set. The bound grows by Latest's
	// weight only in the slots that do not cover Latest — elsewhere the
	// element brought nothing the slot's last scan did not count. One cov
	// probe answers that for every slot; it comes after the seed merge,
	// which may move the table. One gainUB probe finds every slot's bound.
	wLatest, latestCov := 0.0, g.zero
	if e.LatestValid {
		wLatest = g.weight(e.Latest)
		if row := g.cov.find(uint32(e.Latest)); row != nil {
			latestCov = row
		}
	}
	bounds := g.gainUB.find(u) // absent until a scan of e.User's set rejects
	bounded := e.LatestValid && bounds.ok()
	for wi := range g.und {
		var und uint64
		cand := g.live[wi] &^ g.full[wi] &^ seedIn[wi]
		g.slotVisits += int64(bits.OnesCount64(cand))
		for c := cand; c != 0; c &= c - 1 {
			b := bits.TrailingZeros64(c)
			s := wi<<6 | b
			thr := g.thr[s]
			if singleton < thr {
				continue // gain <= singleton cannot clear the threshold
			}
			if bounded {
				if ub := bounds.get(s); ub >= 0 {
					grew := latestCov[wi]&(1<<b) == 0
					if grew {
						ub += wLatest
					}
					if ub < thr || ub <= 0 {
						// Admission needs gain >= thr and gain > 0.
						if grew {
							bounds.set(s, ub)
						}
						continue
					}
				}
			}
			und |= 1 << b
			g.gain[s] = 0
		}
		g.und[wi] = und
	}
	if isZero(g.und) {
		return
	}
	g.scans++

	// Scan: one cov probe per member serves every slot still undecided.
	// Each slot accumulates its marginal gain only until its admission
	// condition is decided: gain can only grow, so a slot leaves the scan
	// at its threshold.
	clear(g.adm)
	for _, c := range e.Prefix {
		g.scanMembers++
		covered := g.cov.find(uint32(c.V))
		if covered == nil {
			covered = g.zero
		}
		for wi, und := range g.und {
			unc := und &^ covered[wi]
			if unc == 0 {
				continue
			}
			w := g.weight(c.V)
			for ; unc != 0; unc &= unc - 1 {
				b := bits.TrailingZeros64(unc)
				s := wi<<6 | b
				g.gain[s] += w
				if g.gain[s] >= g.thr[s] && g.gain[s] > 0 {
					g.adm[wi] |= 1 << b
					g.und[wi] &^= 1 << b
				}
			}
		}
		if isZero(g.und) {
			break
		}
	}
	if !isZero(g.und) {
		if !bounds.ok() {
			bounds = g.gainUB.insert(u)
		}
		for wi, und := range g.und {
			for ; und != 0; und &= und - 1 {
				s := wi<<6 | bits.TrailingZeros64(und)
				bounds.set(s, g.gain[s])
			}
		}
	}
	if isZero(g.adm) {
		return
	}
	g.poolVer++
	seedIn = g.seedOf.row(u)
	for wi, adm := range g.adm {
		seedIn[wi] |= adm
		for ; adm != 0; adm &= adm - 1 {
			b := bits.TrailingZeros64(adm)
			s := wi<<6 | b
			g.addSeed(s, e.User)
			if len(g.seeds[s]) >= g.k {
				g.full[wi] |= 1 << b
			}
		}
	}
	// gain > 0 means every admitting slot is credited at least one member
	// here, so cover re-derives its threshold with the new seed count.
	for _, c := range e.Prefix {
		g.cover(c.V, g.adm)
	}
}

// addSeed appends u to slot s's seed list. A full list grows fourfold from
// a first capacity of 8, never past k: grown one append at a time it
// reallocated at every size class on the way to k.
func (g *grid) addSeed(s int, u stream.UserID) {
	if seeds := g.seeds[s]; len(seeds) == cap(seeds) {
		g.seeds[s] = slices.Grow(seeds, min(max(8, 4*cap(seeds)), g.k)-len(seeds))
	}
	g.seeds[s] = append(g.seeds[s], u)
}

// refresh folds the current best instance into the monotone best-ever
// cache; ties go to the lowest guess.
func (g *grid) refresh() {
	if !g.dirty {
		return
	}
	g.dirty = false
	for _, s := range g.order {
		if v := g.value[s]; v > g.bestVal {
			g.bestVal = v
			g.bestSeeds = append(g.bestSeeds[:0], g.seeds[s]...)
			g.poolVer++
		}
	}
}

// Value implements Oracle.
func (g *grid) Value() float64 {
	g.refresh()
	return g.bestVal
}

// Seeds implements Oracle.
func (g *grid) Seeds() []stream.UserID {
	g.refresh()
	return g.bestSeeds
}

// Candidates implements CandidateSource: the deduplicated union of every
// live instance's seed set plus the monotone best-ever answer, sorted
// ascending. Instances with different OPT guesses admit different users, so
// the union is a strictly richer pool than Seeds() — exactly what a
// distributed merge layer wants to re-score. The live seeds are the users
// with a seedOf bit set. The result is cached until the pool changes; a
// rebuild allocates anew, so a returned slice is never written again.
func (g *grid) Candidates() []stream.UserID {
	g.refresh()
	if g.poolAt == g.poolVer {
		return g.pool
	}
	pool := make([]stream.UserID, 0, len(g.bestSeeds)+g.seedOf.count)
	pool = g.seedOf.appendSet(append(pool, g.bestSeeds...))
	slices.Sort(pool)
	g.pool, g.poolAt = slices.Compact(pool), g.poolVer
	return g.pool
}

// Stats implements Oracle.
func (g *grid) Stats() Stats {
	return Stats{Instances: len(g.order), Elements: g.elements, Scans: g.scans, ScanMembers: g.scanMembers, SlotVisits: g.slotVisits}
}

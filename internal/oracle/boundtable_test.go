package oracle

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/stream"
	"repro/internal/submod"
)

// TestBoundTableMatchesModel drives a boundTable and a map of rows with the
// same random finds, bound writes (inserting on a user's first), column
// clears and resets, over enough users to grow the index and the chunk list
// several times, every seed once with narrow (uint8) and once with wide
// (float64) rows. The users are the two ends of the key space and a random
// spread of full-range keys. Half the bounds written are small, some
// fractional, and half lie around 255, where a narrow cell stops holding
// them. The ops are FuzzBoundTable's encoding, drawn the way the seeds draw
// them, and the whole table is compared after every insert.
func TestBoundTableMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		width, ops := randomBoundOps(seed, 4000)
		for _, narrow := range []bool{true, false} {
			checkBoundTable(t, width, narrow, ops, true)
		}
	}
}

// FuzzBoundTable checks a boundTable against a map of rows under any
// sequence of up to maxBoundOps operations, encoded as boundOpLen describes,
// on rows of 1 to 70 bounds (one- and two-word slot masks), narrow or wide.
// It compares the whole table only when an insert grows the index, so a
// fuzz input runs fast; the seed-driven test compares after every insert.
func FuzzBoundTable(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		width, ops := randomBoundOps(seed, 300)
		f.Add(uint8(width-1), seed%2 == 0, ops)
	}
	f.Fuzz(func(t *testing.T, w uint8, narrow bool, ops []byte) {
		checkBoundTable(t, 1+int(w)%70, narrow, ops[:min(len(ops), maxBoundOps*boundOpLen)], false)
	})
}

// maxBoundOps caps the ops a fuzz input runs. A thousand already grow a
// table's index and chunk list several times, and a longer input only
// slows the fuzzer's minimizing.
const maxBoundOps = 1000

// A bound-table op is boundOpLen bytes: a kind (its value mod 100: below 40
// find, below 95 write a bound, below 99 clear slots, else reset), the
// user's key as four big-endian bytes, a slot and an argument — the value
// written (boundValue) or the stride and count of the slots cleared.
const boundOpLen = 7

// boundValue is the bound a write stores: below 128 a half-integer from 0
// to 63.5, 255 a bound past 2²⁴, and the rest a half-integer within 32 of
// 255, where a narrow cell stops holding bounds.
func boundValue(b byte) float64 {
	switch {
	case b < 128:
		return float64(b) / 2
	case b == 255:
		return 1<<24 + 1
	}
	return noBound8 + float64(int(b)-192)/2
}

// randomBoundOps draws a row width and n ops, 40 % finds, 55 % writes, 4 %
// clears and 1 % resets, over a few hundred users: 0, math.MaxUint32 and a
// random spread of full-range keys.
func randomBoundOps(seed int64, n int) (int, []byte) {
	rng := rand.New(rand.NewSource(seed))
	width := 1 + rng.Intn(70)
	keys := []uint32{0, math.MaxUint32}
	for users := 20 + rng.Intn(600); len(keys) < users; {
		if k := rng.Uint32(); !slices.Contains(keys, k) {
			keys = append(keys, k)
		}
	}
	ops := make([]byte, 0, n*boundOpLen)
	for range n {
		ops = append(ops, byte(rng.Intn(100)))
		ops = binary.BigEndian.AppendUint32(ops, keys[rng.Intn(len(keys))])
		ops = append(ops, byte(rng.Intn(256)), byte(rng.Intn(256)))
	}
	return width, ops
}

// rowOf reads a row out as float64s, nil when it is absent.
func rowOf(row boundRow, width int) []float64 {
	if !row.ok() {
		return nil
	}
	out := make([]float64, width)
	for s := range out {
		out[s] = row.get(s)
	}
	return out
}

// checkBoundTable runs ops against a boundTable and a map of rows. A wide
// cell reads back what was written; a narrow one the value rounded up to an
// integer, or no bound from 255 up. A fresh row holds no bound whatever
// the chunk held before, and after every clear, reset and index growth —
// and, with full, after every insert — the whole table is compared: no
// insert disturbed another user's row, and a bound written under slot s
// before s was cleared — a retired instance's — is gone from every row, so
// the slot's next owner finds none.
func checkBoundTable(t *testing.T, width int, narrow bool, ops []byte, full bool) {
	t.Helper()
	tab := newBoundTable(width, narrow)
	model := map[uint32][]float64{}
	stored := func(v float64) float64 {
		if !narrow {
			return v
		}
		if c := math.Ceil(v); c < noBound8 {
			return c
		}
		return -1
	}
	check := func(op int) {
		t.Helper()
		if tab.n != len(model) {
			t.Fatalf("width %d narrow=%v op %d: %d rows, model %d", width, narrow, op, tab.n, len(model))
		}
		if tab.n > 0 && (len(tab.chunks8) > 0) != narrow {
			t.Fatalf("width %d narrow=%v op %d: rows in %d uint8 and %d float64 chunks", width, narrow, op, len(tab.chunks8), len(tab.chunks64))
		}
		for k, want := range model {
			if got := rowOf(tab.find(k), width); !slices.Equal(got, want) {
				t.Fatalf("width %d narrow=%v op %d: user %d row %v, model %v", width, narrow, op, k, got, want)
			}
		}
	}
	for op := 0; op < len(ops)/boundOpLen; op++ {
		b := ops[op*boundOpLen : (op+1)*boundOpLen]
		k, s := binary.BigEndian.Uint32(b[1:5]), int(b[5])%width
		switch kind := b[0] % 100; {
		case kind < 40:
			if got, want := rowOf(tab.find(k), width), model[k]; !slices.Equal(got, want) || (got == nil) != (want == nil) {
				t.Fatalf("width %d narrow=%v op %d: find(%d) = %v, model %v", width, narrow, op, k, got, want)
			}
		case kind < 95:
			row := tab.find(k)
			if !row.ok() {
				cells := len(tab.index)
				row = tab.insert(k)
				model[k] = slices.Repeat([]float64{-1}, width)
				if got := rowOf(row, width); !slices.Equal(got, model[k]) {
					t.Fatalf("width %d narrow=%v op %d: user %d's new row %v", width, narrow, op, k, got)
				}
				if full || len(tab.index) != cells {
					check(op) // the insert (or the index's growth) kept every row
				}
			}
			v := boundValue(b[6])
			row.set(s, v)
			model[k][s] = stored(v)
			if got := row.get(s); got != model[k][s] {
				t.Fatalf("width %d narrow=%v op %d: set %v, read back %v, model %v", width, narrow, op, v, got, model[k][s])
			}
		case kind < 99:
			mask := make([]uint64, (width+63)/64)
			for i := 0; i <= int(b[6]%3); i++ {
				c := (s + i*int(b[6]>>2)) % width
				mask[c>>6] |= 1 << (c & 63)
				for _, row := range model {
					row[c] = -1
				}
			}
			tab.clearSlots(mask)
			check(op)
		default:
			tab.reset()
			clear(model)
			check(op)
			if len(tab.chunks8)+len(tab.chunks64) != 0 || len(tab.index) != minRowCells {
				t.Fatalf("width %d narrow=%v op %d: reset kept %d chunks, %d index cells",
					width, narrow, op, len(tab.chunks8)+len(tab.chunks64), len(tab.index))
			}
		}
	}
	check(len(ops) / boundOpLen)
}

// sieveKinds are the two sieve-style oracles' grids, built for k and
// weights w.
var sieveKinds = []struct {
	name string
	mk   func(k int, w submod.Weights) *grid
}{
	{"sieve", func(k int, w submod.Weights) *grid { return &NewSieve(k, 0.1, w).grid }},
	{"threshold", func(k int, w submod.Weights) *grid { return &NewThreshold(k, 0.1, w).grid }},
}

// TestNarrowBoundsMatchWide: a cardinality grid keeps its gain bounds as
// uint8 and a weighted one as float64. The same set-stream goes to a grid
// with no weights (narrow rows) and to one whose every weight is 1 (wide
// rows).
//
// On an integer objective whose bounds stay below 255 the narrow rows round
// nothing: both admission rules must save the same bytes, answer the same
// Value, Seeds and Candidates and do the same scans at every point
// compared.
//
// Where a bound reaches 255 a narrow cell keeps none, so the narrow grid
// scans where the wide one rejects from its bound — and decides the same.
// On bigSetElements at k = 2 (the "past-255" cases) the thresholds of the
// highest guesses pass 255, a scan there rejects a user whose gain is past
// it, and the narrow grid must store no bound for that real one; after
// every element both grids answer the same Value, Seeds and Candidates, and
// the narrow grid has scanned more often.
func TestNarrowBoundsMatchWide(t *testing.T) {
	for _, c := range sieveKinds {
		t.Run(c.name, func(t *testing.T) {
			narrow, wide := c.mk(50, nil), c.mk(50, submod.Cardinality{})
			if !narrow.gainUB.narrow || wide.gainUB.narrow {
				t.Fatalf("narrow rows: %v without weights, %v with unit weights", narrow.gainUB.narrow, wide.gainUB.narrow)
			}
			elems := append(randomElements(3, 300, 6000, 400), churnElements(150)...)
			for i, e := range elems {
				narrow.Process(e)
				wide.Process(e)
				if i%500 != 499 && i != len(elems)-1 {
					continue
				}
				compareGrids(t, i, narrow, wide)
				if ns, ws := narrow.Stats(), wide.Stats(); ns != ws {
					t.Fatalf("element %d: stats %+v narrow, %+v wide", i, ns, ws)
				}
				if !bytes.Equal(stateBytes(t, narrow), stateBytes(t, wide)) {
					t.Fatalf("element %d: SaveState bytes differ", i)
				}
			}
			if narrow.gainUB.n == 0 || narrow.Stats().Scans == 0 {
				t.Fatal("no scan rejected a user: the gain bounds were never exercised")
			}
		})
	}
	elems := bigSetElements(12)
	checkLatestContract(t, elems)
	for _, c := range sieveKinds {
		t.Run(c.name+"-past-255", func(t *testing.T) {
			narrow, wide := c.mk(2, nil), c.mk(2, submod.Cardinality{})
			sentinels := 0
			for i, e := range elems {
				narrow.Process(e)
				wide.Process(e)
				compareGrids(t, i, narrow, wide)
				if ns, ws := narrow.Stats().Scans, wide.Stats().Scans; ns < ws {
					t.Fatalf("element %d: %d scans narrow, %d wide", i, ns, ws)
				}
				sentinels += sentinelCells(narrow, wide)
			}
			if sentinels == 0 {
				t.Fatal("no narrow cell stored the sentinel for a bound of 255 or more")
			}
			ns, ws := narrow.Stats().Scans, wide.Stats().Scans
			if ns == ws {
				t.Fatalf("%d scans narrow and wide: no sentinel ever cost a scan", ns)
			}
			t.Logf("%d scans narrow, %d wide; %d sentinel cells summed over elements", ns, ws, sentinels)
		})
	}
}

// compareGrids fails the test unless two grids answer the same Value, Seeds
// and Candidates.
func compareGrids(t *testing.T, i int, narrow, wide *grid) {
	t.Helper()
	if nv, wv := narrow.Value(), wide.Value(); nv != wv {
		t.Fatalf("element %d: value %v narrow, %v wide", i, nv, wv)
	}
	if ns, ws := narrow.Seeds(), wide.Seeds(); !slices.Equal(ns, ws) {
		t.Fatalf("element %d: seeds %v narrow, %v wide", i, ns, ws)
	}
	if nc, wc := narrow.Candidates(), wide.Candidates(); !slices.Equal(nc, wc) {
		t.Fatalf("element %d: candidates %v narrow, %v wide", i, nc, wc)
	}
}

// sentinelCells counts the cells where the wide grid keeps a bound of 255
// or more and the narrow grid's row for the same user and slot holds the
// sentinel.
func sentinelCells(narrow, wide *grid) int {
	n := 0
	for _, c := range wide.gainUB.index {
		if c == 0 {
			continue
		}
		nr := narrow.gainUB.find(uint32(c >> 32))
		if !nr.ok() {
			continue
		}
		wr := wide.gainUB.at(c)
		for s := range wide.gainUB.width {
			if wr.get(s) >= noBound8 && nr.u8[s] == noBound8 {
				n++
			}
		}
	}
	return n
}

// bigSetElements is a stream whose marginal gains pass 255. User 1 comes
// first with members [0, 440), the largest singleton, so every instance
// admits it and, at k = 2, the thresholds of the highest guesses lie
// between 280 and 440. Users 2 and 3 follow with 420 and 400 members that
// user 1 covers 140 and 60 of: those instances scan them and reject a gain
// of 280 or 340. Then both take rounds turns gaining one fresh member,
// which Latest names; their sets stay below the first singleton, so no
// guess moves.
func bigSetElements(rounds int) []Element {
	members := func(from stream.UserID, n int) []stream.Contrib {
		out := make([]stream.Contrib, n, n+rounds)
		for i := range out {
			out[i].V = from + stream.UserID(i)
		}
		return out
	}
	sets := [][]stream.Contrib{members(0, 440), members(300, 420), members(380, 400)}
	var out []Element
	for u, s := range sets {
		out = append(out, Element{User: stream.UserID(1 + u), Prefix: s})
	}
	next := [2]stream.UserID{1 << 20, 1 << 21} // fresh members for users 2 and 3
	for r := 0; r < 2*rounds; r++ {
		i := r % 2
		v := next[i]
		next[i]++
		sets[1+i] = append(sets[1+i], stream.Contrib{V: v})
		out = append(out, Element{User: stream.UserID(2 + i), Latest: v, LatestValid: true, Prefix: sets[1+i]})
	}
	return out
}

// TestNarrowBoundRoundsUp: a narrow cell holds an integer below 255. It
// rounds a fractional bound up to the next integer — still an upper bound
// on the gain — keeps 254, and reads 255 and anything larger as no bound,
// which costs a scan; a wide row keeps every bound exactly.
func TestNarrowBoundRoundsUp(t *testing.T) {
	for _, c := range []struct {
		v, narrow float64
	}{{2.5, 3}, {253.25, 254}, {254, 254}, {254.5, -1}, {255, -1}, {65_535, -1}, {1<<24 + 1, -1}} {
		for _, narrow := range []bool{true, false} {
			tab := newBoundTable(3, narrow)
			row := tab.insert(7)
			row.set(1, c.v)
			row = tab.find(7)
			want := c.v
			if narrow {
				want = c.narrow
			}
			if got := row.get(1); got != want {
				t.Fatalf("narrow=%v: stored %v, read back %v, want %v", narrow, c.v, got, want)
			}
		}
	}
}

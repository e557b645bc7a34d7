package oracle

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/submod"
)

// TestBoundTableMatchesModel drives a boundTable and a map of rows with the
// same random finds, bound writes (inserting on a user's first), column
// clears and resets, over enough users to grow the index and the chunk list
// several times, every seed once with narrow (float32) and once with wide
// (float64) rows. After every operation that moves or rewrites rows the whole
// table is compared: a fresh row holds no bound whatever the chunk held
// before, and a bound written under slot s before s was cleared — a retired
// instance's — is gone from every row, so the slot's next owner finds none.
func TestBoundTableMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		for _, narrow := range []bool{true, false} {
			testBoundTableModel(t, seed, narrow)
		}
	}
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

func testBoundTableModel(t *testing.T, seed int64, narrow bool) {
	rng := rand.New(rand.NewSource(seed))
	width := 1 + rng.Intn(70)           // one- and two-word slot masks
	keys := []uint32{0, math.MaxUint32} // the ends of the key space, then a random spread
	for n := 20 + rng.Intn(600); len(keys) < n; {
		if k := rng.Uint32(); !slices.Contains(keys, k) {
			keys = append(keys, k)
		}
	}
	tab := newBoundTable(width, narrow)
	model := map[uint32][]float64{}
	check := func(op int) {
		t.Helper()
		if tab.n != len(model) {
			t.Fatalf("seed %d narrow=%v op %d: %d rows, model %d", seed, narrow, op, tab.n, len(model))
		}
		if tab.n > 0 && (len(tab.chunks32) > 0) != narrow {
			t.Fatalf("seed %d narrow=%v op %d: rows in %d float32 and %d float64 chunks", seed, narrow, op, len(tab.chunks32), len(tab.chunks64))
		}
		for k, want := range model {
			if got := rowOf(tab.find(k), width); !slices.Equal(got, want) {
				t.Fatalf("seed %d narrow=%v op %d: user %d row %v, model %v", seed, narrow, op, k, got, want)
			}
		}
	}
	for op := 0; op < 4000; op++ {
		k := keys[rng.Intn(len(keys))]
		switch r := rng.Intn(100); {
		case r < 40:
			if got, want := rowOf(tab.find(k), width), model[k]; !slices.Equal(got, want) || (got == nil) != (want == nil) {
				t.Fatalf("seed %d narrow=%v op %d: find(%d) = %v, model %v", seed, narrow, op, k, got, want)
			}
		case r < 95:
			row := tab.find(k)
			if !row.ok() {
				row = tab.insert(k)
				model[k] = slices.Repeat([]float64{-1}, width)
				check(op) // growth kept every row; the new one is empty
			}
			s, ub := rng.Intn(width), float64(rng.Intn(50))
			row.set(s, ub)
			model[k][s] = ub
		case r < 99:
			mask := make([]uint64, (width+63)/64)
			for i := rng.Intn(3); i >= 0; i-- {
				s := rng.Intn(width)
				mask[s>>6] |= 1 << (s & 63)
				for _, row := range model {
					row[s] = -1
				}
			}
			tab.clearSlots(mask)
			check(op)
		default:
			tab.reset()
			clear(model)
			check(op)
			if len(tab.chunks32)+len(tab.chunks64) != 0 || len(tab.index) != minRowCells {
				t.Fatalf("seed %d narrow=%v op %d: reset kept %d chunks, %d index cells",
					seed, narrow, op, len(tab.chunks32)+len(tab.chunks64), len(tab.index))
			}
		}
	}
	check(4000)
}

// TestNarrowBoundsMatchWide: a cardinality grid keeps its gain bounds as
// float32 and a weighted one as float64, and on an integer objective the
// narrow rows round nothing. The same set-stream goes to a grid with no
// weights (narrow rows) and to one whose every weight is 1 (wide rows);
// both admission rules must save the same bytes, answer the same Value,
// Seeds and Candidates and do the same scans at every point compared.
func TestNarrowBoundsMatchWide(t *testing.T) {
	for _, c := range []struct {
		name string
		mk   func(w submod.Weights) *grid
	}{
		{"sieve", func(w submod.Weights) *grid { return &NewSieve(50, 0.1, w).grid }},
		{"threshold", func(w submod.Weights) *grid { return &NewThreshold(50, 0.1, w).grid }},
	} {
		t.Run(c.name, func(t *testing.T) {
			narrow, wide := c.mk(nil), c.mk(submod.Cardinality{})
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
				if nv, wv := narrow.Value(), wide.Value(); nv != wv {
					t.Fatalf("element %d: value %v narrow, %v wide", i, nv, wv)
				}
				if ns, ws := narrow.Seeds(), wide.Seeds(); !slices.Equal(ns, ws) {
					t.Fatalf("element %d: seeds %v narrow, %v wide", i, ns, ws)
				}
				if nc, wc := narrow.Candidates(), wide.Candidates(); !slices.Equal(nc, wc) {
					t.Fatalf("element %d: candidates %v narrow, %v wide", i, nc, wc)
				}
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
}

// TestNarrowBoundRoundsUp: past 2²⁴ a float32 cannot hold every integer,
// and a narrow row rounds a bound up to the next one it can — still an
// upper bound on the gain — where a wide row keeps it exactly.
func TestNarrowBoundRoundsUp(t *testing.T) {
	const v = 1<<24 + 1
	for _, narrow := range []bool{true, false} {
		tab := newBoundTable(3, narrow)
		row := tab.insert(7)
		row.set(1, v)
		row = tab.find(7)
		got := row.get(1)
		if got < v || !narrow && got != v {
			t.Fatalf("narrow=%v: stored %v, read back %v", narrow, float64(v), got)
		}
	}
}

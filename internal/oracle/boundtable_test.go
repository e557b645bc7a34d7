package oracle

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestBoundTableMatchesModel drives a boundTable and a map of rows with the
// same random finds, bound writes (inserting on a user's first), column
// clears and resets, over enough users to grow the index and the chunk list
// several times. After every operation that moves or rewrites rows the whole
// table is compared: a fresh row holds no bound whatever the chunk held
// before, and a bound written under slot s before s was cleared — a retired
// instance's — is gone from every row, so the slot's next owner finds none.
func TestBoundTableMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		width := 1 + rng.Intn(70)           // one- and two-word slot masks
		keys := []uint32{0, math.MaxUint32} // the ends of the key space, then a random spread
		for n := 20 + rng.Intn(600); len(keys) < n; {
			if k := rng.Uint32(); !slices.Contains(keys, k) {
				keys = append(keys, k)
			}
		}
		tab := newBoundTable(width)
		model := map[uint32][]float64{}
		check := func(op int) {
			t.Helper()
			if tab.n != len(model) {
				t.Fatalf("seed %d op %d: %d rows, model %d", seed, op, tab.n, len(model))
			}
			for k, want := range model {
				if got := tab.find(k); !slices.Equal(got, want) {
					t.Fatalf("seed %d op %d: user %d row %v, model %v", seed, op, k, got, want)
				}
			}
		}
		for op := 0; op < 4000; op++ {
			k := keys[rng.Intn(len(keys))]
			switch r := rng.Intn(100); {
			case r < 40:
				if got, want := tab.find(k), model[k]; !slices.Equal(got, want) || (got == nil) != (want == nil) {
					t.Fatalf("seed %d op %d: find(%d) = %v, model %v", seed, op, k, got, want)
				}
			case r < 95:
				row := tab.find(k)
				if row == nil {
					row = tab.insert(k)
					model[k] = slices.Repeat([]float64{-1}, width)
					check(op) // growth kept every row; the new one is empty
				}
				s, ub := rng.Intn(width), float64(rng.Intn(50))
				row[s], model[k][s] = ub, ub
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
				if len(tab.chunks) != 0 || len(tab.index) != minRowCells {
					t.Fatalf("seed %d op %d: reset kept %d chunks, %d index cells", seed, op, len(tab.chunks), len(tab.index))
				}
			}
		}
		check(4000)
	}
}

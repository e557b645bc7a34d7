package oracle

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/stream"
	"repro/internal/submod"
	"repro/internal/wire"
)

// persistCase builds a fresh oracle of each persistable kind.
var persistCases = []struct {
	name string
	mk   func() Oracle
}{
	{"sieve", func() Oracle { return NewSieve(4, 0.2, nil) }},
	{"threshold", func() Oracle { return NewThreshold(4, 0.2, nil) }},
	{"sieve-weighted", func() Oracle {
		return NewSieve(4, 0.2, submod.Table{W: map[stream.UserID]float64{1: 2.5, 3: 0.5}, Default: 1})
	}},
	{"blogwatch", func() Oracle { return NewSwap(4, nil, false) }},
	{"mkc", func() Oracle { return NewSwap(4, nil, true) }},
}

// persistElements yields a deterministic element stream with growing
// influence sets, re-offering users so seed-update paths are exercised.
func persistElements(n int, seed int64) []Element {
	rng := rand.New(rand.NewSource(seed))
	sets := map[stream.UserID][]stream.UserID{}
	out := make([]Element, 0, n)
	for i := 0; i < n; i++ {
		u := stream.UserID(rng.Intn(20))
		v := stream.UserID(rng.Intn(200))
		sets[u] = append(sets[u], v)
		set := append([]stream.UserID(nil), sets[u]...)
		out = append(out, SliceElement(u, set))
	}
	return out
}

func saveRestore(t *testing.T, src Oracle, dst Oracle) {
	t.Helper()
	var buf bytes.Buffer
	sp, ok := src.(Persistent)
	if !ok {
		t.Fatalf("%T does not implement Persistent", src)
	}
	if err := sp.SaveState(wire.NewWriter(&buf)); err != nil {
		t.Fatalf("SaveState: %v", err)
	}
	dp := dst.(Persistent)
	if err := dp.RestoreState(wire.NewReader(bytes.NewReader(buf.Bytes()))); err != nil {
		t.Fatalf("RestoreState: %v", err)
	}
}

// TestPersistRoundTripContinuation is the oracle-layer identity contract: a
// restored oracle answers identically now AND keeps making identical
// admission decisions on every future element.
func TestPersistRoundTripContinuation(t *testing.T) {
	elems := persistElements(400, 17)
	for _, tc := range persistCases {
		t.Run(tc.name, func(t *testing.T) {
			src := tc.mk()
			for _, e := range elems[:250] {
				src.Process(e)
			}
			dst := tc.mk()
			saveRestore(t, src, dst)

			if got, want := dst.Value(), src.Value(); got != want {
				t.Fatalf("restored Value = %v, want %v", got, want)
			}
			if got, want := dst.Seeds(), src.Seeds(); !reflect.DeepEqual(
				append([]stream.UserID{}, got...), append([]stream.UserID{}, want...)) {
				t.Fatalf("restored Seeds = %v, want %v", got, want)
			}
			want := src.Stats()
			want.Scans, want.ScanMembers, want.SlotVisits = 0, 0, 0 // work counters are not saved
			if got := dst.Stats(); got != want {
				t.Fatalf("restored Stats = %+v, want %+v", got, want)
			}

			for i, e := range elems[250:] {
				src.Process(e)
				dst.Process(e)
				if src.Value() != dst.Value() {
					t.Fatalf("element %d: values diverge: %v vs %v", i, src.Value(), dst.Value())
				}
				if !reflect.DeepEqual(
					append([]stream.UserID{}, src.Seeds()...),
					append([]stream.UserID{}, dst.Seeds()...)) {
					t.Fatalf("element %d: seeds diverge: %v vs %v", i, src.Seeds(), dst.Seeds())
				}
			}
		})
	}
}

// TestPersistDeterministicBytes asserts SaveState is canonical: same state,
// same bytes (map-backed state must be emitted in sorted order).
func TestPersistDeterministicBytes(t *testing.T) {
	for _, tc := range persistCases {
		t.Run(tc.name, func(t *testing.T) {
			o := tc.mk()
			for _, e := range persistElements(200, 5) {
				o.Process(e)
			}
			p := o.(Persistent)
			var b1, b2 bytes.Buffer
			if err := p.SaveState(wire.NewWriter(&b1)); err != nil {
				t.Fatalf("SaveState: %v", err)
			}
			if err := p.SaveState(wire.NewWriter(&b2)); err != nil {
				t.Fatalf("SaveState: %v", err)
			}
			if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
				t.Fatal("two SaveStates of the same oracle produced different bytes")
			}
		})
	}
}

func TestPersistTruncated(t *testing.T) {
	for _, tc := range persistCases {
		t.Run(tc.name, func(t *testing.T) {
			o := tc.mk()
			for _, e := range persistElements(100, 9) {
				o.Process(e)
			}
			var buf bytes.Buffer
			if err := o.(Persistent).SaveState(wire.NewWriter(&buf)); err != nil {
				t.Fatalf("SaveState: %v", err)
			}
			b := buf.Bytes()
			fresh := tc.mk().(Persistent)
			if err := fresh.RestoreState(wire.NewReader(bytes.NewReader(b[:len(b)-3]))); err == nil {
				t.Fatal("RestoreState of truncated payload succeeded")
			}
		})
	}
}

// TestRestoreRejectsWhatNoGridSaves: hand-built version-1 sieve payloads a
// grid of this k and β cannot have written are errors, not state — one more
// instance than the grid ever holds (a gain-bound row has no column for it),
// a negative gain bound (which a row reads as "no bound"), more than k seeds
// in a slot or in the best-ever set, a seed twice in one slot, a negative or
// non-finite m, OPT guess, slot value or best value (a NaN m used to restore
// and then answer 0 where a sane one answers 24), a lowest guess exponent
// jLo other than the one retune derives from m, and a slot value other than
// the number of users the slot covers (this grid's objective is
// cardinality).
func TestRestoreRejectsWhatNoGridSaves(t *testing.T) {
	const k = 4
	most := NewSieve(k, 0.2, nil).gainUB.width
	type fields struct {
		instances, seeds, best, covered, jLo int
		m, opt, value, bestVal, bound        float64
		dupSeed                              bool
	}
	good := fields{instances: most, seeds: k, best: k, covered: 4, m: 1, opt: 1, value: 4, bestVal: 4, bound: 2}
	payload := func(g fields) []byte {
		var buf bytes.Buffer
		w := wire.NewWriter(&buf)
		w.Uvarint(gridPayloadVersion)
		w.Varint(1) // elements
		w.F64(g.m)
		w.Varint(int64(g.jLo))
		w.Uvarint(uint64(g.instances))
		for i := 0; i < g.instances; i++ {
			w.F64(g.opt)
			w.Uvarint(uint64(g.seeds))
			for u := range g.seeds {
				if g.dupSeed && u == g.seeds-1 {
					u = 0
				}
				w.Uvarint(uint64(u))
			}
			w.Uvarint(uint64(g.covered)) // users 0, 1, … delta-coded
			for u := range g.covered {
				w.Uvarint(uint64(min(u, 1)))
			}
			w.F64(g.value)
			w.Uvarint(1) // gain bounds
			w.Uvarint(7)
			w.F64(g.bound)
		}
		w.F64(g.bestVal)
		w.Uvarint(uint64(g.best))
		for u := range g.best {
			w.Uvarint(uint64(u))
		}
		w.Bool(false)
		if err := w.Err(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	restore := func(g fields) error {
		return NewSieve(k, 0.2, nil).RestoreState(wire.NewReader(bytes.NewReader(payload(g))))
	}
	if err := restore(good); err != nil {
		t.Fatalf("%d instances of %d seeds, the most a grid holds: %v", most, k, err)
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		name string
		edit func(*fields)
	}{
		{"one instance too many", func(g *fields) { g.instances = most + 1 }},
		{"negative gain bound", func(g *fields) { g.bound = -2 }},
		{"k+1 seeds in a slot", func(g *fields) { g.seeds = k + 1 }},
		{"k+1 best seeds", func(g *fields) { g.best = k + 1 }},
		{"m NaN", func(g *fields) { g.m = nan }},
		{"m +Inf", func(g *fields) { g.m = inf }},
		{"m negative", func(g *fields) { g.m = -1 }},
		{"opt NaN", func(g *fields) { g.opt = nan }},
		{"opt +Inf", func(g *fields) { g.opt = inf }},
		{"opt negative", func(g *fields) { g.opt = -1 }},
		{"value NaN", func(g *fields) { g.value = nan }},
		{"value -Inf", func(g *fields) { g.value = math.Inf(-1) }},
		{"value negative", func(g *fields) { g.value = -1 }},
		{"best value NaN", func(g *fields) { g.bestVal = nan }},
		{"best value +Inf", func(g *fields) { g.bestVal = inf }},
		{"best value negative", func(g *fields) { g.bestVal = -1 }},
		{"a seed twice in a slot", func(g *fields) { g.dupSeed = true }},
		{"jLo not m's lowest guess", func(g *fields) { g.jLo = 1 }},
		{"jLo below m's lowest guess", func(g *fields) { g.jLo = -1 }},
		{"value above the covered count", func(g *fields) { g.covered = 3 }},
		{"value below the covered count", func(g *fields) { g.covered = 5 }},
	} {
		g := good
		c.edit(&g)
		if err := restore(g); err == nil {
			t.Errorf("%s: payload restored", c.name)
		}
	}
}

// TestSwapRestoreRejectsWhatNoSwapSaves: the swap oracles' twin of the grid
// test above — a payload holding more than k seeds, or a negative or
// non-finite value, is an error, so a restored BlogWatch or MkC tracker
// cannot serve more than k seeds.
func TestSwapRestoreRejectsWhatNoSwapSaves(t *testing.T) {
	const k = 3
	payload := func(seeds int, value float64) []byte {
		var buf bytes.Buffer
		w := wire.NewWriter(&buf)
		w.Uvarint(swapPayloadVersion)
		w.Varint(int64(seeds)) // elements
		w.F64(value)
		w.Uvarint(uint64(seeds))
		for u := range seeds {
			w.Uvarint(uint64(u)) // user
			w.Uvarint(1)         // influence set
			w.Uvarint(uint64(u))
		}
		if err := w.Err(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, c := range []struct {
		name  string
		seeds int
		value float64
		ok    bool
	}{
		{"k seeds", k, k, true},
		{"no seeds", 0, 0, true},
		{"k+1 seeds", k + 1, k + 1, false},
		{"value NaN", k, math.NaN(), false},
		{"value +Inf", k, math.Inf(1), false},
		{"value negative", k, -1, false},
	} {
		for _, full := range []bool{false, true} {
			s := NewSwap(k, nil, full)
			err := s.RestoreState(wire.NewReader(bytes.NewReader(payload(c.seeds, c.value))))
			if c.ok && err != nil {
				t.Errorf("%s (MkC %v): %v", c.name, full, err)
			}
			if !c.ok && err == nil {
				t.Errorf("%s (MkC %v): payload restored with %d seeds, value %v", c.name, full, len(s.Seeds()), s.Value())
			}
		}
	}
}

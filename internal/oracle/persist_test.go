package oracle

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
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

// TestRestoreRefusesUnwrittenVersions: a payload one version past the one
// its oracle writes — grid version 3, swap version 2 — is refused, and the
// error names the version.
func TestRestoreRefusesUnwrittenVersions(t *testing.T) {
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
			b := buf.Bytes() // the version is its first byte, a one-byte uvarint
			b[0]++
			err := tc.mk().(Persistent).RestoreState(wire.NewReader(bytes.NewReader(b)))
			if want := fmt.Sprintf("version %d", b[0]); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("RestoreState: %v, want an error naming %s", err, want)
			}
		})
	}
}

// gridPayload describes a hand-built sieve payload for a grid of k =
// payloadK and β = 0.2; its bytes method writes it in the current grid
// payload layout.
type gridPayload struct {
	slots           []int
	rows            []gridPayloadRow
	seeds, best     int // per slot, and best-ever
	jLo             int
	m, opt, bestVal float64
	value           float64 // added to each slot's covered count
	dupSeed         bool
	weighted        bool
}

// gridPayloadRow is one cov row: the user as a delta from the row before,
// and the word of slots that cover the user.
type gridPayloadRow struct {
	delta uint64
	word  uint64
}

const payloadK = 4

// goodGridPayload is a payload a grid can have written: slots 0 and 3 each
// cover users 4 and 9; slot 3 also covers user 10.
func goodGridPayload() gridPayload {
	return gridPayload{slots: []int{3, 0}, rows: []gridPayloadRow{{5, 1<<0 | 1<<3}, {5, 1<<0 | 1<<3}, {1, 1 << 3}},
		seeds: payloadK, best: payloadK, m: 1, opt: 1, bestVal: 3}
}

// instances edits g to hold n instances in slots 0 … n-1, covering no one.
func (g *gridPayload) instances(n int) {
	g.slots, g.rows = make([]int, n), nil
	for i := range g.slots {
		g.slots[i] = i
	}
}

func (g gridPayload) bytes(t *testing.T) []byte {
	var buf bytes.Buffer
	w := wire.NewWriter(&buf)
	w.Uvarint(gridPayloadVersion)
	w.Varint(1) // elements
	w.F64(g.m)
	w.Varint(int64(g.jLo))
	w.Uvarint(uint64(len(g.slots)))
	for _, s := range g.slots {
		w.Uvarint(uint64(s))
		w.F64(g.opt)
		w.Uvarint(uint64(g.seeds))
		for u := range g.seeds {
			if g.dupSeed && u == g.seeds-1 {
				u = 0
			}
			w.Uvarint(uint64(u))
		}
		covered := 0
		for _, r := range g.rows {
			covered += int(r.word >> s & 1)
		}
		w.F64(float64(covered) + g.value)
	}
	w.Uvarint(uint64(len(g.rows)))
	for _, r := range g.rows {
		w.Uvarint(r.delta)
		w.U64(r.word)
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

func (g gridPayload) restore(t *testing.T) error {
	var w submod.Weights
	if g.weighted {
		w = testWeights()
	}
	return NewSieve(payloadK, 0.2, w).RestoreState(wire.NewReader(bytes.NewReader(g.bytes(t))))
}

// rejectGridPayloads applies each edit to a fresh goodGridPayload and
// fails the test for every edited payload that restores.
func rejectGridPayloads(t *testing.T, cases []struct {
	name string
	edit func(*gridPayload)
}) {
	t.Helper()
	for _, c := range cases {
		g := goodGridPayload()
		c.edit(&g)
		if err := g.restore(t); err == nil {
			t.Errorf("%s: payload restored", c.name)
		}
	}
}

// TestRestoreRejectsWhatNoGridSaves: hand-built sieve payloads a grid of
// this k and β cannot have written are errors, not state — one instance
// more than a gain-bound row has columns, more than k seeds in a slot or in
// the best-ever set, a seed twice in one slot, a negative or non-finite m,
// OPT guess, slot value or best value (a NaN m used to restore and then
// answer 0 where a sane one answers 24), and a lowest guess exponent jLo
// other than the one retune derives from m. The non-finite and negative
// slot values are restored onto a weighted grid, where no count check
// stands behind the sanity check.
func TestRestoreRejectsWhatNoGridSaves(t *testing.T) {
	most := NewSieve(payloadK, 0.2, nil).gainUB.width
	for _, weighted := range []bool{false, true} {
		g := goodGridPayload()
		g.weighted = weighted
		if err := g.restore(t); err != nil {
			t.Fatalf("two instances of %d seeds in slots 3 and 0 (weighted %v): %v", payloadK, weighted, err)
		}
	}
	full := goodGridPayload()
	full.instances(most)
	if err := full.restore(t); err != nil {
		t.Fatalf("%d instances, the most a grid holds: %v", most, err)
	}
	nan, inf := math.NaN(), math.Inf(1)
	rejectGridPayloads(t, []struct {
		name string
		edit func(*gridPayload)
	}{
		{"one instance too many", func(g *gridPayload) { g.instances(most + 1) }},
		{"k+1 seeds in a slot", func(g *gridPayload) { g.seeds = payloadK + 1 }},
		{"k+1 best seeds", func(g *gridPayload) { g.best = payloadK + 1 }},
		{"a seed twice in a slot", func(g *gridPayload) { g.dupSeed = true }},
		{"m NaN", func(g *gridPayload) { g.m = nan }},
		{"m +Inf", func(g *gridPayload) { g.m = inf }},
		{"m negative", func(g *gridPayload) { g.m = -1 }},
		{"opt NaN", func(g *gridPayload) { g.opt = nan }},
		{"opt +Inf", func(g *gridPayload) { g.opt = inf }},
		{"opt negative", func(g *gridPayload) { g.opt = -1 }},
		{"value NaN", func(g *gridPayload) { g.value, g.weighted = nan, true }},
		{"value -Inf", func(g *gridPayload) { g.value, g.weighted = math.Inf(-1), true }},
		{"value negative", func(g *gridPayload) { g.value, g.weighted = -10, true }},
		{"best value NaN", func(g *gridPayload) { g.bestVal = nan }},
		{"best value +Inf", func(g *gridPayload) { g.bestVal = inf }},
		{"best value negative", func(g *gridPayload) { g.bestVal = -1 }},
		{"jLo one above m's lowest guess", func(g *gridPayload) { g.jLo = 1 }},
		{"jLo one below m's lowest guess", func(g *gridPayload) { g.jLo = -1 }},
	})
}

// TestRestoreRejectsWhatNoGridSavesV2: what the slot numbers and the
// user-major cov rows of the version 2 layout can state and no grid writes
// — a slot at or past the width of a gain-bound row, one slot held by two
// instances, rows that do not strictly ascend by user, a zero row, a bit in
// a slot no instance holds, and a slot value other than the number of rows
// with its bit (this grid's objective is cardinality).
func TestRestoreRejectsWhatNoGridSavesV2(t *testing.T) {
	most := NewSieve(payloadK, 0.2, nil).gainUB.width
	rejectGridPayloads(t, []struct {
		name string
		edit func(*gridPayload)
	}{
		{"slot at the row width", func(g *gridPayload) { g.slots[1] = most }},
		{"one slot twice", func(g *gridPayload) { g.slots[1] = 3 }},
		{"a user twice", func(g *gridPayload) { g.rows[1].delta = 0 }},
		{"users past uint32", func(g *gridPayload) { g.rows[1].delta = 1 << 32 }},
		{"a zero row", func(g *gridPayload) { g.rows[2].word = 0 }},
		{"a bit in a free slot", func(g *gridPayload) { g.rows[2].word |= 1 << 1 }},
		{"value above the covered count", func(g *gridPayload) { g.value = 1 }},
		{"value below the covered count", func(g *gridPayload) { g.value = -1 }},
	})
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

package oracle

import (
	"bytes"
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
	{"exact", func() Oracle { return NewExact(3, nil) }},
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
			want.Scans, want.ScanMembers = 0, 0 // work counters are not saved
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
// and a negative gain bound (which a row reads as "no bound").
func TestRestoreRejectsWhatNoGridSaves(t *testing.T) {
	most := NewSieve(4, 0.2, nil).gainUB.width
	payload := func(instances int, bound float64) []byte {
		var buf bytes.Buffer
		w := wire.NewWriter(&buf)
		w.Uvarint(gridPayloadVersion)
		w.Varint(1) // elements
		w.F64(1)    // m
		w.Varint(0) // jLo
		w.Uvarint(uint64(instances))
		for i := 0; i < instances; i++ {
			w.F64(1)     // opt
			w.Uvarint(0) // seeds
			w.Uvarint(0) // covered members
			w.F64(0)     // value
			w.Uvarint(1) // gain bounds
			w.Uvarint(7)
			w.F64(bound)
		}
		w.F64(0)     // best value
		w.Uvarint(0) // best seeds
		w.Bool(false)
		if err := w.Err(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	restore := func(b []byte) error {
		return NewSieve(4, 0.2, nil).RestoreState(wire.NewReader(bytes.NewReader(b)))
	}
	if err := restore(payload(most, 2)); err != nil {
		t.Fatalf("%d instances, the most a grid holds: %v", most, err)
	}
	if err := restore(payload(most+1, 2)); err == nil {
		t.Fatalf("payload with %d instances restored into a grid that holds %d", most+1, most)
	}
	if err := restore(payload(1, -2)); err == nil {
		t.Fatal("payload with a negative gain bound restored")
	}
}

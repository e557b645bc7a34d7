package stream

import (
	"bytes"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/wire"
)

// genActions builds a deterministic random stream with reply chains.
func genActions(n int, users int, seed int64) []Action {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Action, 0, n)
	for i := 0; i < n; i++ {
		a := Action{ID: ActionID(i + 1), User: UserID(rng.Intn(users)), Parent: NoParent}
		if i > 0 && rng.Float64() < 0.7 {
			back := rng.Intn(min(i, 40)) + 1
			a.Parent = ActionID(i + 1 - back)
		}
		out = append(out, a)
	}
	return out
}

// persistIngest feeds actions with periodic horizon advances, mimicking
// the framework's maintenance cadence.
func persistIngest(t *testing.T, s *Stream, actions []Action, window ActionID) {
	t.Helper()
	for _, a := range actions {
		if _, err := s.Ingest(a); err != nil {
			t.Fatalf("ingest %v: %v", a, err)
		}
		if h := a.ID - window + 1; h > 0 {
			s.Advance(h)
		}
		checkLogBytes(t, s)
	}
}

func TestSaveRestoreRoundTrip(t *testing.T) {
	actions := genActions(1200, 80, 7)
	s := New()
	persistIngest(t, s, actions[:800], 300)

	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	r, err := Restore(bytes.NewReader(buf.Bytes()), nil, 0)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}

	checkLogBytes(t, r)
	if r.Last() != s.Last() || r.Horizon() != s.Horizon() || r.Len() != s.Len() {
		t.Fatalf("restored scalars differ: last %d/%d horizon %d/%d len %d/%d",
			r.Last(), s.Last(), r.Horizon(), s.Horizon(), r.Len(), s.Len())
	}

	// Continue ingesting identically on both and compare every influence
	// query along the way: restored behavior must be bit-identical.
	for _, a := range actions[800:] {
		for _, st := range []*Stream{s, r} {
			if _, err := st.Ingest(a); err != nil {
				t.Fatalf("post-restore ingest %v: %v", a, err)
			}
			if h := a.ID - 300 + 1; h > 0 {
				st.Advance(h)
			}
			checkLogBytes(t, st)
		}
		u := a.User
		got := r.InfluenceRecency(u, r.Horizon())
		want := s.InfluenceRecency(u, s.Horizon())
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("after %v: influence recency of %d differs:\n got %v\nwant %v", a, u, got, want)
		}
	}
	// Contributor resolution (ancestor chains through expired-but-retained
	// records) must also survive.
	for _, a := range actions[1100:] {
		got := r.Contributors(a.ID, nil)
		want := s.Contributors(a.ID, nil)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("contributors of %d differ: %v vs %v", a.ID, got, want)
		}
	}
}

func TestSaveDeterministic(t *testing.T) {
	s := New()
	persistIngest(t, s, genActions(500, 40, 3), 200)
	var b1, b2 bytes.Buffer
	if err := s.Save(&b1); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if err := s.Save(&b2); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("two Saves of the same stream produced different bytes")
	}
}

func TestRestoreEmptyStream(t *testing.T) {
	var buf bytes.Buffer
	if err := New().Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	r, err := Restore(bytes.NewReader(buf.Bytes()), nil, 0)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if r.Last() != -1 || r.Len() != 0 {
		t.Fatalf("restored empty stream: last=%d len=%d", r.Last(), r.Len())
	}
	if _, err := r.Ingest(Action{ID: 1, User: 2, Parent: NoParent}); err != nil {
		t.Fatalf("ingest into restored empty stream: %v", err)
	}
}

func TestRestoreTruncated(t *testing.T) {
	s := New()
	persistIngest(t, s, genActions(300, 30, 5), 100)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	b := buf.Bytes()
	if _, err := Restore(bytes.NewReader(b[:len(b)/2]), nil, 0); err == nil {
		t.Fatal("Restore of truncated payload succeeded")
	}
}

// v3Payload writes a version-3 stream payload with the given window and
// index sections (records as {id, user, parent, refs}), no logs and no cold
// tier.
func v3Payload(horizon, last ActionID, window []Action, index [][4]int64) []byte {
	var buf bytes.Buffer
	w := wire.NewWriter(&buf)
	w.Uvarint(streamPayloadVersion)
	w.Varint(int64(horizon))
	w.Varint(int64(last))
	w.Uvarint(uint64(len(window)))
	for _, a := range window {
		w.Varint(int64(a.ID))
		w.Uvarint(uint64(a.User))
		w.Varint(int64(a.Parent))
	}
	w.Uvarint(uint64(len(index)))
	for _, r := range index {
		w.Varint(r[0])
		w.Uvarint(uint64(r[1]))
		w.Varint(r[2])
		w.Varint(r[3])
	}
	w.Uvarint(0) // logs
	w.Uvarint(0) // cold extents
	w.Uvarint(0) // segment manifest
	return buf.Bytes()
}

// TestRestoreRejectsWhatTheRingCannotHold: the window and index sections
// must describe one ring plus its pinned ancestors. The first case is a
// consistent payload — action 7 replies to the pinned action 2, action 6's
// parent 4 was cut — and restores; each other case breaks one rule. The
// pinned ancestors, which Save writes in ascending ID order, must come in
// that order: the restored list is searched by binary search.
func TestRestoreRejectsWhatTheRingCannotHold(t *testing.T) {
	window := []Action{{5, 1, NoParent}, {6, 2, 4}, {7, 3, 2}}
	index := [][4]int64{{2, 9, -1, 1}, {5, 1, -1, 1}, {6, 2, -1, 1}, {7, 3, 2, 1}}
	edit := func(i int, r [4]int64) [][4]int64 {
		out := slices.Clone(index)
		out[i] = r
		return out
	}
	for _, c := range []struct {
		name    string
		horizon ActionID
		window  []Action
		index   [][4]int64
		wantErr string
	}{
		{"consistent", 5, window, index, ""},
		{"windowed action without index record", 5, window, slices.Delete(slices.Clone(index), 2, 3), "has no index record"},
		{"index record missing from window", 5, window[:2], index, "missing from the window"},
		{"index record above horizon missing from window", 5, window, append(slices.Clone(index), [4]int64{8, 4, -1, 1}), "missing from the window"},
		{"reference count zero", 5, window, edit(2, [4]int64{6, 2, -1, 0}), "reference count 0"},
		{"pinned reference count negative", 5, window, edit(0, [4]int64{2, 9, -1, -3}), "reference count -3"},
		{"window IDs not increasing", 5, []Action{window[0], window[2], window[1]}, index, "do not increase"},
		{"window ID repeated", 5, []Action{window[0], window[1], window[1]}, index, "do not increase"},
		{"windowed action below horizon", 6, window, index, "outside"},
		{"windowed action after last", 5, append(slices.Clone(window), Action{9, 4, NoParent}), index, "outside"},
		{"index record with a later parent", 5, window, edit(0, [4]int64{2, 9, 3, 1}), "has parent 3"},
		{"index record with another user", 5, window, edit(3, [4]int64{7, 4, 2, 1}), "disagrees"},
		{"index record with another parent", 5, window, edit(3, [4]int64{7, 3, 1, 1}), "disagrees"},
		{"negative horizon", -2, window, index, "negative horizon"},
		{"pinned IDs not increasing", 5, window, append([][4]int64{{3, 8, -1, 1}}, index...), "do not increase at 2"},
		{"pinned ID repeated", 5, window, append([][4]int64{{2, 9, -1, 1}}, index...), "do not increase at 2"},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, err := Restore(bytes.NewReader(v3Payload(c.horizon, 8, c.window, c.index)), nil, 0)
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("Restore: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("Restore error %v, want one containing %q", err, c.wantErr)
			}
		})
	}
}

// TestPayloadSizeMatchesSave: PayloadSize, which sums varint lengths
// instead of encoding, is the length Save writes — on an empty stream, on
// gappedStream (pinned ancestors, cut parents, gapped IDs), on a stream
// whose IDs, users and log times need long varints, and on a stream with
// spilled logs, whose cold tier it does encode; and it fails where Save
// does, on a segment that cannot be stat'ed.
func TestPayloadSizeMatchesSave(t *testing.T) {
	far := New()
	for i := range ActionID(300) {
		a := Action{ID: 1<<40 + i*(1<<20), User: UserID(1<<31 + i%7), Parent: NoParent}
		if i%3 > 0 {
			a.Parent = a.ID - 1<<20
		}
		if _, err := far.Ingest(a); err != nil {
			t.Fatal(err)
		}
		far.Advance(a.ID - 100<<20)
	}
	store := newFakeStore()
	cold := New()
	cold.SetCold(store, 100)
	for id := ActionID(1); id <= 40; id++ {
		if _, err := cold.Ingest(Action{ID: id, User: UserID(id % 13), Parent: max(id-3, NoParent)}); err != nil {
			t.Fatal(err)
		}
		cold.Advance(id - 20)
	}
	if len(cold.cold) == 0 {
		t.Fatal("no log was spilled")
	}
	for name, s := range map[string]*Stream{"empty": New(), "gapped": gappedStream(t), "far": far, "cold": cold} {
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if n, err := s.PayloadSize(); n != buf.Len() || err != nil {
			t.Fatalf("%s: PayloadSize = %d, %v; Save wrote %d bytes", name, n, err, buf.Len())
		}
	}
	for seg := range store.segs {
		delete(store.segs, seg)
	}
	if _, err := cold.PayloadSize(); err == nil {
		t.Fatal("PayloadSize stat'ed a segment the store no longer has")
	}
}

// FuzzStreamRestore: Restore either rejects a payload, or returns a stream
// whose Save restores and saves again to the same bytes, and whose
// PayloadSize is the length of those bytes.
func FuzzStreamRestore(f *testing.F) {
	for _, name := range []string{"payload_v3_0c9a0b9.bin", "payload_v2_pr17.bin"} {
		b, err := os.ReadFile("testdata/" + name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add(v3Payload(5, 8, []Action{{5, 1, NoParent}, {6, 2, 4}, {7, 3, 2}},
		[][4]int64{{2, 9, -1, 1}, {5, 1, -1, 1}, {6, 2, -1, 1}, {7, 3, 2, 1}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Restore(bytes.NewReader(data), nil, 0)
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := s.Save(&first); err != nil {
			t.Fatal(err)
		}
		if n, _ := s.PayloadSize(); n != first.Len() {
			t.Fatalf("PayloadSize %d, Save wrote %d bytes", n, first.Len())
		}
		r, err := Restore(bytes.NewReader(first.Bytes()), nil, 0)
		if err != nil {
			t.Fatalf("Restore of a restored stream's Save: %v", err)
		}
		if err := r.Save(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("save, restore, save changed the bytes:\n%x\n%x", first.Bytes(), second.Bytes())
		}
	})
}

// TestRestorePrePR18Payload: a version-2 payload written before the stream
// stopped keeping Table 3 counters and the all-time user set (testdata, saved
// by the PR 17 tree from exactly the stream rebuilt here) still restores, to
// the state the same actions build today, and saves back in today's bytes.
func TestRestorePrePR18Payload(t *testing.T) {
	old, err := os.ReadFile("testdata/payload_v2_pr17.bin")
	if err != nil {
		t.Fatal(err)
	}
	r, err := Restore(bytes.NewReader(old), nil, 0)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	s := New()
	persistIngest(t, s, genActions(400, 30, 11), 120)
	var got, want bytes.Buffer
	if err := r.Save(&got); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("the restored old payload saves differently from the stream rebuilt from its actions")
	}
	if got.Len() >= len(old) {
		t.Fatalf("today's payload is %d bytes, the old one %d: the old one carried the user set", got.Len(), len(old))
	}
}

// gappedStream ingests the fixed stream behind testdata/payload_v3_0c9a0b9.bin
// with the public API only: 900 actions whose IDs step by 1 to 5, 75 %
// replies to an action up to 150 IDs back — an ID never ingested, or one
// already collected, is a cut parent — and a 100-ID time window, so that
// ancestors below the horizon stay pinned by live replies.
func gappedStream(t *testing.T) *Stream {
	t.Helper()
	rng := rand.New(rand.NewSource(29))
	s := New()
	id := ActionID(0)
	for i := 0; i < 900; i++ {
		id += ActionID(1 + rng.Intn(5))
		a := Action{ID: id, User: UserID(rng.Intn(50)), Parent: NoParent}
		if back := ActionID(1 + rng.Intn(150)); rng.Float64() < 0.75 && back < id {
			a.Parent = id - back
		}
		if _, err := s.Ingest(a); err != nil {
			t.Fatalf("ingest %v: %v", a, err)
		}
		s.Advance(id - 99)
	}
	return s
}

// TestPayloadBytesPinned: the ring saves the stream payload byte for byte as
// the map-and-window index did (testdata, written by that index's Save from
// gappedStream), and restoring those bytes saves them back unchanged. The
// stream holds every case the index section encodes: pinned ancestors below
// the horizon, cut parents and gapped IDs.
func TestPayloadBytesPinned(t *testing.T) {
	want, err := os.ReadFile("testdata/payload_v3_0c9a0b9.bin")
	if err != nil {
		t.Fatal(err)
	}
	s := gappedStream(t)
	cut, gaps := 0, 0
	for i := range s.rlen {
		e := s.ring[s.at(i)]
		if e.refs&cutBit != 0 {
			cut++
		}
		if i > 0 && e.id != s.ring[s.at(i-1)].id+1 {
			gaps++
		}
	}
	if s.pins() == 0 || cut == 0 || gaps == 0 {
		t.Fatalf("the stream misses a case: %d pinned, %d cut, %d gaps", s.pins(), cut, gaps)
	}
	var got bytes.Buffer
	if err := s.Save(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("Save wrote %d bytes that differ from the %d-byte golden", got.Len(), len(want))
	}
	r, err := Restore(bytes.NewReader(want), nil, 0)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	got.Reset()
	if err := r.Save(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatal("the restored golden saves different bytes")
	}
}

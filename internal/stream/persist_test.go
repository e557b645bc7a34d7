package stream

import (
	"bytes"
	"math/rand"
	"os"
	"reflect"
	"testing"
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

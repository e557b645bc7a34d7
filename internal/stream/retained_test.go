package stream

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
)

// checkLogBytes asserts that the two maintained log-byte counters equal a
// walk over every hot log — what RetainedBytesEstimate did on every call
// before capBytes existed: capBytes is the logs at capacity, hotBytes the
// same logs at length.
func checkLogBytes(t *testing.T, s *Stream) {
	t.Helper()
	var atCap, atLen int64
	for _, l := range s.logs {
		atCap += int64(cap(l.list)) * contribBytes
		atLen += int64(len(l.list)) * contribBytes
	}
	if s.capBytes != atCap || s.hotBytes != atLen {
		t.Fatalf("log byte counters drifted: capBytes %d (walk %d), hotBytes %d (walk %d)",
			s.capBytes, atCap, s.hotBytes, atLen)
	}
}

// TestRetainedBytesCounterMatchesWalk drives a stream through everything
// that changes a log's capacity — growth on ingest, emptying on expiry,
// spills, re-touched spilled users, re-spills that fold an old extent, and a
// save/restore in the middle — checking the counters after every step.
func TestRetainedBytesCounterMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	store := newFakeStore()
	s := New()
	s.SetCold(store, 2048)
	const window = 300
	for i := 1; i <= 4000; i++ {
		a := Action{ID: ActionID(i), User: UserID(rng.Intn(120)), Parent: NoParent}
		if i > 1 && rng.Float64() < 0.7 {
			a.Parent = ActionID(i - 1 - rng.Intn(min(i-1, 200)))
		}
		if _, err := s.Ingest(a); err != nil {
			t.Fatal(err)
		}
		checkLogBytes(t, s)
		if i > window {
			s.Advance(ActionID(i - window + 1))
			checkLogBytes(t, s)
		}
		if i == 2000 {
			var buf bytes.Buffer
			if err := s.Save(&buf); err != nil {
				t.Fatal(err)
			}
			r, err := Restore(&buf, store, 2048)
			if err != nil {
				t.Fatal(err)
			}
			checkLogBytes(t, r)
			s = r
		}
	}
	ts := s.TierStats()
	if ts.Spills < 2 || ts.ColdUsers == 0 || len(s.logs) == 0 {
		t.Fatalf("the stream never exercised the tiers: %+v, %d hot logs", ts, len(s.logs))
	}
}

// TestDrainTouched: the list names every contributor whose log an ingest
// changed since the last drain, and admits it when it lost some.
func TestDrainTouched(t *testing.T) {
	s := New()
	if users, ok := s.DrainTouched(); len(users) != 0 || !ok {
		t.Fatalf("fresh stream: touched %v, ok=%v", users, ok)
	}
	// 2 replies to 1, 3 replies to 2: the chains touch {1}, {2,1}, {3,2,1}.
	ingestAll(t, s, []Action{{1, 1, NoParent}, {2, 2, 1}, {3, 3, 2}})
	users, ok := s.DrainTouched()
	if want := []UserID{1, 2, 1, 3, 2, 1}; !ok || !slices.Equal(users, want) {
		t.Fatalf("touched %v (ok=%v), want %v", users, ok, want)
	}
	if users, ok := s.DrainTouched(); len(users) != 0 || !ok {
		t.Fatalf("second drain: touched %v, ok=%v", users, ok)
	}
	// Batch ingestion records the same way.
	if _, err := s.IngestBatch([]Action{{4, 4, 3}, {5, 5, NoParent}}); err != nil {
		t.Fatal(err)
	}
	users, ok = s.DrainTouched()
	if want := []UserID{4, 3, 2, 1, 5}; !ok || !slices.Equal(users, want) {
		t.Fatalf("touched by a batch %v (ok=%v), want %v", users, ok, want)
	}
	// Past maxTouched the list stops growing and says so, once.
	for i := 0; i <= maxTouched; i++ {
		ingestAll(t, s, []Action{{ActionID(10 + i), 9, NoParent}})
	}
	if users, ok := s.DrainTouched(); ok || len(users) != maxTouched {
		t.Fatalf("after %d touches: %d listed, ok=%v", maxTouched+1, len(users), ok)
	}
	ingestAll(t, s, []Action{{ActionID(20 + maxTouched), 9, NoParent}})
	if users, ok := s.DrainTouched(); !ok || !slices.Equal(users, []UserID{9}) {
		t.Fatalf("after the overflowed drain: touched %v, ok=%v", users, ok)
	}
}

// TestStateBoundedByWindow: what a stream holds, and what it saves, follows
// the window and not the history behind it. 200 000 users act once each
// through a 100-action window; afterwards the resident estimate is under a
// fixed cap, and the payload is byte for byte that of a stream that has only
// ever seen the window.
func TestStateBoundedByWindow(t *testing.T) {
	const window, users = 100, 200000
	s := New()
	for i := 1; i <= users; i++ {
		ingestAll(t, s, []Action{{ID: ActionID(i), User: UserID(i), Parent: NoParent}})
		s.Advance(ActionID(i - window + 1))
	}
	if got, limit := s.RetainedBytesEstimate(), int64(128<<10); got > limit {
		t.Errorf("RetainedBytesEstimate = %d bytes for a %d-action window after %d users, want at most %d", got, window, users, limit)
	}
	fresh := New()
	for i := users - window + 1; i <= users; i++ {
		ingestAll(t, fresh, []Action{{ID: ActionID(i), User: UserID(i), Parent: NoParent}})
	}
	fresh.Advance(s.Horizon())
	var long, short bytes.Buffer
	if err := s.Save(&long); err != nil {
		t.Fatal(err)
	}
	if err := fresh.Save(&short); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(long.Bytes(), short.Bytes()) {
		t.Errorf("Save after %d users is %d bytes, a stream that saw only the window saves %d", users, long.Len(), short.Len())
	}
}

// TestSeenClearingKeepsDedup: emptying the mark table between generations
// changes no answer. A crowd of one-off users pushes it past its bound many
// times over while a few regulars keep replying to each other; every action's
// contributors must be its chain as retained, each user once, in first-met
// order — deduplicated here with a fresh set per action.
func TestSeenClearingKeepsDedup(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := New()
	cleared := 0
	for i := 1; i <= 20000; i++ {
		a := Action{ID: ActionID(i), User: UserID(1000 + i), Parent: NoParent}
		if i%3 == 0 {
			a.User = UserID(rng.Intn(20))
			a.Parent = ActionID(i - 1 - rng.Intn(min(i-1, 50)))
		}
		before := len(s.seen)
		d, err := s.Ingest(a)
		if err != nil {
			t.Fatal(err)
		}
		if len(s.seen) < before {
			cleared++
		}
		var want []UserID
		met := map[UserID]bool{}
		for id := a.ID; id != NoParent; {
			e, ok := s.lookup(id)
			if !ok {
				break
			}
			if !met[e.user] {
				met[e.user] = true
				want = append(want, e.user)
			}
			id = e.up()
		}
		if !slices.Equal(d.Contributors, want) {
			t.Fatalf("action %v: contributors %v, its retained chain has %v", a, d.Contributors, want)
		}
		s.Advance(a.ID - 200)
	}
	if cleared < 2 {
		t.Fatalf("the mark table was emptied %d times: the test proves nothing", cleared)
	}
}

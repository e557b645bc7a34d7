package stream

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// paperStream is the running example of Figure 1.
func paperStream() []Action {
	return []Action{
		{1, 1, NoParent},
		{2, 2, 1},
		{3, 3, NoParent},
		{4, 3, 1},
		{5, 4, 3},
		{6, 1, 3},
		{7, 5, 3},
		{8, 4, 7},
		{9, 2, NoParent},
		{10, 6, 9},
	}
}

func ingestAll(t *testing.T, s *Stream, actions []Action) {
	t.Helper()
	for _, a := range actions {
		if _, err := s.Ingest(a); err != nil {
			t.Fatalf("Ingest(%v): %v", a, err)
		}
		checkLogBytes(t, s)
	}
}

func sortedSet(s *Stream, u UserID, start ActionID) []UserID {
	set := s.InfluenceSet(u, start)
	sort.Slice(set, func(i, j int) bool { return set[i] < set[j] })
	if set == nil {
		set = []UserID{}
	}
	return set
}

func TestPaperExample1InfluenceAtTime8(t *testing.T) {
	s := New()
	ingestAll(t, s, paperStream()[:8])
	want := map[UserID][]UserID{
		1: {1, 2, 3},
		2: {2},
		3: {1, 3, 4, 5},
		4: {4},
		5: {4, 5},
		6: {},
	}
	for u, w := range want {
		if got := sortedSet(s, u, 1); !reflect.DeepEqual(got, w) {
			t.Errorf("I_8(u%d) = %v, want %v", u, got, w)
		}
	}
}

func TestPaperExample1InfluenceAtTime10(t *testing.T) {
	s := New()
	ingestAll(t, s, paperStream())
	s.Advance(3) // window W_10 with N=8 covers a3..a10
	want := map[UserID][]UserID{
		1: {1, 3}, // u2 dropped with a2's expiry; u3 kept via unexpired a4
		2: {2, 6},
		3: {1, 3, 4, 5},
		4: {4},
		5: {4, 5},
		6: {6},
	}
	for u, w := range want {
		if got := sortedSet(s, u, 3); !reflect.DeepEqual(got, w) {
			t.Errorf("I_10(u%d) = %v, want %v", u, got, w)
		}
	}
}

func TestInfluenceThroughExpiredAncestor(t *testing.T) {
	// a4 = <u3, a1> stays in the window after a1 expires; u1 must still
	// influence u3 (paper §3: "such an a' is not necessarily in W_t").
	s := New()
	ingestAll(t, s, paperStream())
	s.Advance(3)
	got := sortedSet(s, 1, 3)
	if !reflect.DeepEqual(got, []UserID{1, 3}) {
		t.Fatalf("I_10(u1) = %v, want [1 3]", got)
	}
}

func TestSuffixQueriesMatchPaperCheckpoints(t *testing.T) {
	// Figure 2 reports the optimal influence values per checkpoint start.
	// Spot-check the underlying influence sets for start = 5 at time 8:
	// actions a5..a8 give I[5](u3) = {u4, u1, u5} (via a5, a6, a7, a8).
	s := New()
	ingestAll(t, s, paperStream()[:8])
	got := sortedSet(s, 3, 5)
	if !reflect.DeepEqual(got, []UserID{1, 4, 5}) {
		t.Fatalf("I_8[5](u3) = %v, want [1 4 5]", got)
	}
	if n := len(s.InfluenceSet(5, 7)); n != 2 { // a7 self, a8 child
		t.Fatalf("|I_8[7](u5)| = %d, want 2", n)
	}
}

func TestIngestErrors(t *testing.T) {
	s := New()
	if _, err := s.Ingest(Action{5, 1, NoParent}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest(Action{5, 2, NoParent}); err != ErrNonMonotonicID {
		t.Errorf("duplicate ID: got %v, want ErrNonMonotonicID", err)
	}
	if _, err := s.Ingest(Action{4, 2, NoParent}); err != ErrNonMonotonicID {
		t.Errorf("smaller ID: got %v, want ErrNonMonotonicID", err)
	}
	if _, err := s.Ingest(Action{6, 2, 6}); err != ErrBadParent {
		t.Errorf("self parent: got %v, want ErrBadParent", err)
	}
	if _, err := s.Ingest(Action{6, 2, 9}); err != ErrBadParent {
		t.Errorf("future parent: got %v, want ErrBadParent", err)
	}
	if _, err := s.Ingest(Action{6, 2, 5}); err != nil {
		t.Errorf("valid action rejected: %v", err)
	}
}

func TestDeltaContributorsDeduplicated(t *testing.T) {
	// u1 replies to itself twice: the chain a3 -> a2 -> a1 has u1 three
	// times but must contribute once.
	s := New()
	ingestAll(t, s, []Action{{1, 1, NoParent}, {2, 1, 1}})
	d, err := s.Ingest(Action{3, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Contributors) != 1 || d.Contributors[0] != 1 {
		t.Fatalf("Contributors = %v, want [1]", d.Contributors)
	}
	if d.Depth != 2 {
		t.Fatalf("Depth = %d, want 2", d.Depth)
	}
	if got := sortedSet(s, 1, 1); !reflect.DeepEqual(got, []UserID{1}) {
		t.Fatalf("I(u1) = %v, want [1]", got)
	}
}

func TestDeltaDepthOfRoot(t *testing.T) {
	s := New()
	d, err := s.Ingest(Action{1, 7, NoParent})
	if err != nil {
		t.Fatal(err)
	}
	if d.Depth != 0 {
		t.Fatalf("root depth = %d, want 0", d.Depth)
	}
	if !reflect.DeepEqual(d.Contributors, []UserID{7}) {
		t.Fatalf("root contributors = %v, want [7]", d.Contributors)
	}
}

func TestAdvanceReleasesRecords(t *testing.T) {
	s := New()
	// A long chain; advancing past everything must empty the index.
	n := 100
	ingestAll(t, s, chain(n))
	if got := s.Len() + s.pins(); got != n {
		t.Fatalf("index size = %d, want %d", got, n)
	}
	s.Advance(ActionID(n + 1))
	if got := s.Len() + s.pins(); got != 0 {
		t.Fatalf("index size after full advance = %d, want 0", got)
	}
	if len(s.logs) != 0 {
		t.Fatalf("logs after full advance = %d, want 0", len(s.logs))
	}
	if s.Len() != 0 {
		t.Fatalf("Len after full advance = %d, want 0", s.Len())
	}
}

// chain returns n actions where each responds to the previous one, all by
// distinct users.
func chain(n int) []Action {
	actions := make([]Action, n)
	for i := range actions {
		p := ActionID(i)
		if i == 0 {
			p = NoParent
		}
		actions[i] = Action{ActionID(i + 1), UserID(i + 1), p}
	}
	return actions
}

func TestAdvanceKeepsAncestorsOfLiveActions(t *testing.T) {
	s := New()
	ingestAll(t, s, chain(50))
	s.Advance(50) // only action 50 retained, but its whole chain is needed
	if s.Len() != 1 || s.pins() != 49 {
		t.Fatalf("ring holds %d, pinned %d: want 1 and 49 (full ancestor chain pinned)", s.Len(), s.pins())
	}
	// The chain is still resolvable.
	contribs := s.Contributors(50, nil)
	if len(contribs) != 50 {
		t.Fatalf("contributors of live action = %d, want 50", len(contribs))
	}
	// But the expired actions no longer contribute to influence queries at
	// or after the horizon.
	if n := len(s.InfluenceSet(1, 50)); n != 1 { // user 1 influences user 50 via the chain
		t.Fatalf("|I_50(u1)| = %d, want 1", n)
	}
}

func TestAdvanceIdempotentAndMonotone(t *testing.T) {
	s := New()
	ingestAll(t, s, paperStream())
	s.Advance(5)
	if s.Horizon() != 5 {
		t.Fatalf("Horizon = %d, want 5", s.Horizon())
	}
	s.Advance(3) // lowering is a no-op
	if s.Horizon() != 5 {
		t.Fatalf("Horizon after lower Advance = %d, want 5", s.Horizon())
	}
	s.Advance(5)
	if s.Horizon() != 5 {
		t.Fatalf("Horizon after equal Advance = %d, want 5", s.Horizon())
	}
}

func TestQueryOlderThanHorizonClamps(t *testing.T) {
	s := New()
	ingestAll(t, s, paperStream())
	s.Advance(3)
	// start=1 after pruning behaves like start=3.
	if got, want := sortedSet(s, 1, 1), sortedSet(s, 1, 3); !reflect.DeepEqual(got, want) {
		t.Fatalf("pre-horizon query = %v, want clamped %v", got, want)
	}
}

func TestInfluencersEnumeration(t *testing.T) {
	s := New()
	ingestAll(t, s, paperStream()[:8])
	got := map[UserID]bool{}
	s.Influencers(1, func(u UserID) bool { got[u] = true; return true })
	want := map[UserID]bool{1: true, 2: true, 3: true, 4: true, 5: true}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Influencers = %v, want %v", got, want)
	}
	// Suffix start 7: only u5 (a7 self), u4 (a8 self), u3 (ancestor of a7, a8).
	got = map[UserID]bool{}
	s.Influencers(7, func(u UserID) bool { got[u] = true; return true })
	want = map[UserID]bool{3: true, 4: true, 5: true}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Influencers(7) = %v, want %v", got, want)
	}
}

func TestStats(t *testing.T) {
	st, err := Summarize(paperStream())
	if err != nil {
		t.Fatal(err)
	}
	if st.Users != 6 {
		t.Errorf("Users = %d, want 6", st.Users)
	}
	if st.Actions != 10 {
		t.Errorf("Actions = %d, want 10", st.Actions)
	}
	// Non-root actions and their response distances:
	// a2:1 a4:3 a5:2 a6:3 a7:4 a8:1 a10:1 -> mean 15/7.
	if want := 15.0 / 7.0; !almost(st.AvgRespDist, want) {
		t.Errorf("AvgRespDist = %v, want %v", st.AvgRespDist, want)
	}
	// Depths: a1:0 a2:1 a3:0 a4:1 a5:1 a6:1 a7:1 a8:2 a9:0 a10:1 -> 8/10.
	if want := 0.8; !almost(st.AvgDepth, want) {
		t.Errorf("AvgDepth = %v, want %v", st.AvgDepth, want)
	}
	if want := 0.3; !almost(st.RootFraction, want) {
		t.Errorf("RootFraction = %v, want %v", st.RootFraction, want)
	}
}

func almost(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}

// bruteInfluence recomputes I_s(u) from the retained actions by walking each
// action's ancestor chain, the reference semantics of Definition 1.
func bruteInfluence(s *Stream, start ActionID) map[UserID]map[UserID]bool {
	inf := map[UserID]map[UserID]bool{}
	for i := range s.rlen {
		e := s.ring[s.at(i)]
		if e.id < start {
			continue
		}
		for _, u := range s.Contributors(e.id, nil) {
			if inf[u] == nil {
				inf[u] = map[UserID]bool{}
			}
			inf[u][e.user] = true
		}
	}
	return inf
}

// TestRandomStreamMatchesBruteForce compares the incremental influence sets
// with the brute-force recomputation on two inputs: contiguous IDs, and IDs
// that step by 1 to 5 — the ring's binary-search path, which every cluster
// shard takes.
func TestRandomStreamMatchesBruteForce(t *testing.T) {
	for _, c := range []struct {
		name    string
		maxStep int
	}{{"contiguous", 1}, {"gapped", 5}} {
		t.Run(c.name, func(t *testing.T) { matchBruteForce(t, c.maxStep) })
	}
}

func matchBruteForce(t *testing.T, maxStep int) {
	rng := rand.New(rand.NewSource(42))
	s := New()
	const n = 3000
	const users = 60
	const window = 500
	ids := make([]ActionID, 0, n)
	id := ActionID(0)
	for i := 1; i <= n; i++ {
		id++
		if maxStep > 1 {
			id += ActionID(rng.Intn(maxStep))
		}
		a := Action{ID: id, User: UserID(rng.Intn(users))}
		if i > 1 && rng.Float64() < 0.7 {
			back := rng.Intn(min(i-1, 400)) + 1
			a.Parent = ids[i-1-back]
		} else {
			a.Parent = NoParent
		}
		ids = append(ids, id)
		if _, err := s.Ingest(a); err != nil {
			t.Fatal(err)
		}
		if i > window {
			s.Advance(ids[i-window])
		}
		checkLogBytes(t, s)
		if i%500 != 0 {
			continue
		}
		// Compare incremental influence sets with the brute-force
		// recomputation at a few suffix starts.
		for _, start := range []ActionID{s.Horizon(), s.Horizon() + window/2, id} {
			want := bruteInfluence(s, start)
			s.Influencers(start, func(u UserID) bool {
				got := map[UserID]bool{}
				s.Influence(u, start, func(v UserID) bool { got[v] = true; return true })
				if !reflect.DeepEqual(got, want[u]) {
					t.Fatalf("t=%d start=%d user=%d: incremental %v != brute %v", id, start, u, got, want[u])
				}
				return true
			})
			for u := range want {
				if len(s.InfluenceSet(u, start)) != len(want[u]) {
					t.Fatalf("t=%d start=%d: user %d missing from incremental index", id, start, u)
				}
			}
		}
	}
}

// TestSlotFindsEveryRetainedID: on a ring with gapped IDs, slot finds every
// ID the ring holds, wherever the head offset lands, and nothing else.
func TestSlotFindsEveryRetainedID(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	s := New()
	id := ActionID(0)
	for i := 0; i < 3000; i++ {
		id += ActionID(1 + rng.Intn(5))
		ingestAll(t, s, []Action{{ID: id, User: UserID(rng.Intn(40)), Parent: NoParent}})
		s.Advance(id - 400)
		if i%97 != 0 {
			continue
		}
		at := map[ActionID]int{}
		for i := range s.rlen {
			at[s.ring[s.at(i)].id] = s.at(i)
		}
		for q := s.Horizon() - 3; q <= id+3; q++ {
			want, ok := at[q]
			if !ok {
				want = -1
			}
			if got := s.slot(q); got != want {
				t.Fatalf("after %d: slot(%d) = %d, want %d", id, q, got, want)
			}
		}
	}
}

func TestUserLogRecencyOrder(t *testing.T) {
	l := &userLog{}
	for i := 1; i <= 1000; i++ {
		l.touch(UserID(i%50), ActionID(i)) // 50 distinct users, repeatedly
	}
	if got := len(l.list); got != 50 {
		t.Fatalf("distinct entries = %d, want 50", got)
	}
	for i := 1; i < len(l.list); i++ {
		if l.list[i-1].T <= l.list[i].T {
			t.Fatalf("list not descending at %d: %v %v", i, l.list[i-1], l.list[i])
		}
	}
	// The most recent toucher sits at the front.
	if l.list[0].V != UserID(1000%50) || l.list[0].T != 1000 {
		t.Fatalf("front = %v", l.list[0])
	}
	// Prefix semantics: entries with T >= 990 are the last 11 touches'
	// distinct users.
	if got := len(l.prefix(990)); got != 11 {
		t.Fatalf("prefix(990) = %d entries, want 11", got)
	}
	// Pruning truncates the tail.
	l.prune(951)
	if got := len(l.list); got != 50 {
		t.Fatalf("after prune(951): %d entries, want 50 (every user touched since)", got)
	}
	l.prune(990)
	if got := len(l.list); got != 11 {
		t.Fatalf("after prune(990): %d entries, want 11", got)
	}
}

func TestUserLogMoveToFront(t *testing.T) {
	l := &userLog{}
	l.touch(7, 1)
	l.touch(8, 2)
	l.touch(9, 3)
	l.touch(7, 4) // 7 moves back to the front
	want := []Contrib{{7, 4}, {9, 3}, {8, 2}}
	if !reflect.DeepEqual(l.list, want) {
		t.Fatalf("list = %v, want %v", l.list, want)
	}
}

func TestActionString(t *testing.T) {
	if got := (Action{3, 7, NoParent}).String(); got != "<u7, nil>_3" {
		t.Errorf("root String = %q", got)
	}
	if got := (Action{5, 2, 3}).String(); got != "<u2, a3>_5" {
		t.Errorf("reply String = %q", got)
	}
}

// TestNewSizedMatchesNew: the capacity hint is purely advisory — a
// pre-sized stream answers every query identically to a default one, for
// hints below, at and above the actual user count.
func TestNewSizedMatchesNew(t *testing.T) {
	actions := make([]Action, 0, 500)
	for i := 1; i <= 500; i++ {
		a := Action{ID: ActionID(i), User: UserID(i % 37), Parent: NoParent}
		if i > 1 && i%3 != 0 {
			a.Parent = ActionID(i - 1)
		}
		actions = append(actions, a)
	}
	ref := New()
	for _, a := range actions {
		if _, err := ref.Ingest(a); err != nil {
			t.Fatal(err)
		}
	}
	ref.Advance(200)
	for _, hint := range []int{-1, 0, 10, 37, 10000} {
		s := NewSized(hint)
		for _, a := range actions {
			if _, err := s.Ingest(a); err != nil {
				t.Fatal(err)
			}
		}
		s.Advance(200)
		if s.Len() != ref.Len() || s.Last() != ref.Last() {
			t.Fatalf("hint %d: %d retained up to %d, want %d up to %d", hint, s.Len(), s.Last(), ref.Len(), ref.Last())
		}
		for u := UserID(0); u < 37; u++ {
			if got, want := s.InfluenceSet(u, 200), ref.InfluenceSet(u, 200); !reflect.DeepEqual(got, want) {
				t.Fatalf("hint %d: user %d influence %v != %v", hint, u, got, want)
			}
		}
	}
}

func BenchmarkIngestChainDepth5(b *testing.B) {
	s := New()
	for i := 1; i <= b.N; i++ {
		a := Action{ID: ActionID(i), User: UserID(i % 1000)}
		if i > 5 && i%6 != 0 {
			a.Parent = ActionID(i - 1)
		} else {
			a.Parent = NoParent
		}
		if _, err := s.Ingest(a); err != nil {
			b.Fatal(err)
		}
		if i > 10000 {
			s.Advance(ActionID(i - 10000))
		}
	}
}

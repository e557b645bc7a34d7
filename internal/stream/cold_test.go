package stream

import (
	"errors"
	"reflect"
	"sort"
	"testing"
)

// fakeStore is an in-memory ColdStore with switchable failure modes, for
// pinning the residency and degraded-path semantics of the tiered window
// state without any filesystem. Extent.Off doubles as the log index within
// a segment.
type fakeStore struct {
	segs     map[SegmentID][][]Contrib
	refs     map[SegmentID]int
	next     SegmentID
	writeErr error
	readErr  error
	reads    int
}

func newFakeStore() *fakeStore {
	return &fakeStore{
		segs: map[SegmentID][][]Contrib{},
		refs: map[SegmentID]int{},
		next: 1,
	}
}

func (f *fakeStore) WriteLogs(logs [][]Contrib) ([]Extent, error) {
	if f.writeErr != nil {
		return nil, f.writeErr
	}
	id := f.next
	f.next++
	kept := make([][]Contrib, len(logs))
	exts := make([]Extent, len(logs))
	for i, l := range logs {
		kept[i] = append([]Contrib(nil), l...)
		exts[i] = Extent{Seg: id, Off: int64(i), Count: len(l), MaxT: l[0].T}
	}
	f.segs[id] = kept
	f.refs[id] = len(logs)
	return exts, nil
}

func (f *fakeStore) ReadLog(ext Extent, buf []Contrib) ([]Contrib, error) {
	f.reads++
	if f.readErr != nil {
		return nil, f.readErr
	}
	return append(buf, f.segs[ext.Seg][ext.Off]...), nil
}

func (f *fakeStore) Retain(seg SegmentID) error {
	if _, ok := f.segs[seg]; !ok {
		return errors.New("fake: unknown segment")
	}
	f.refs[seg]++
	return nil
}

func (f *fakeStore) Release(seg SegmentID) {
	if f.refs[seg] > 0 {
		f.refs[seg]--
	}
}

func (f *fakeStore) Stat(seg SegmentID) (SegmentStat, error) {
	if _, ok := f.segs[seg]; !ok {
		return SegmentStat{}, errors.New("fake: unknown segment")
	}
	return SegmentStat{}, nil
}

// coldSet is InfluenceSet sorted for comparison.
func coldSet(s *Stream, u UserID, start ActionID) []UserID {
	set := s.InfluenceSet(u, start)
	sort.Slice(set, func(i, j int) bool { return set[i] < set[j] })
	return set
}

// TestStreamSpillLifecycle pins the tier residency rules against a fake
// store: spill selection is longest-idle-first, membership queries and
// ingest never read the store, materializing queries read cold extents
// through without promoting them, a failed read degrades one answer to the
// hot tier with a sticky ColdErr, a failed spill leaves every log hot, and
// a re-spill of a re-touched user folds its old extent into the new
// segment.
func TestStreamSpillLifecycle(t *testing.T) {
	s := New()
	store := newFakeStore()
	// Budget of 100 bytes = 6 hot entries; ten one-entry logs overflow it.
	s.SetCold(store, 100)

	for id := ActionID(1); id <= 10; id++ {
		if _, err := s.Ingest(Action{ID: id, User: UserID(id), Parent: NoParent}); err != nil {
			t.Fatal(err)
		}
	}
	// Expire action 1 (dropping user 1's only entry) and cross the budget
	// check: hot is 9 entries = 144 bytes, the spill must move the five
	// longest-idle logs (users 2..6) to reach the 75-byte low watermark.
	s.Advance(2)
	checkLogBytes(t, s)
	ts := s.TierStats()
	if ts.Spills != 1 || ts.ColdUsers != 5 || ts.SpilledLogs != 5 {
		t.Fatalf("after first spill: %+v", ts)
	}
	if ts.HotLogBytes != 4*contribBytes || ts.ColdLogBytes != 5*contribBytes {
		t.Fatalf("tier byte split: %+v", ts)
	}

	// Membership answers come from Extent.MaxT with no store I/O.
	var members []UserID
	s.Influencers(2, func(u UserID) bool { members = append(members, u); return true })
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
	if want := []UserID{2, 3, 4, 5, 6, 7, 8, 9, 10}; !reflect.DeepEqual(members, want) {
		t.Fatalf("Influencers = %v, want %v", members, want)
	}
	if store.reads != 0 {
		t.Fatalf("membership query performed %d cold reads", store.reads)
	}

	// A materializing query reads the cold extent through: the answer is
	// complete, the log STAYS cold, and a repeat query reads again.
	if got := coldSet(s, 2, 2); !reflect.DeepEqual(got, []UserID{2}) {
		t.Fatalf("I(u2) = %v, want [2]", got)
	}
	ts = s.TierStats()
	if ts.ColdFaults != 1 || ts.ColdUsers != 5 || store.reads != 1 {
		t.Fatalf("after cold query: %+v, reads=%d", ts, store.reads)
	}
	if got := coldSet(s, 2, 2); !reflect.DeepEqual(got, []UserID{2}) {
		t.Fatalf("repeat I(u2) = %v, want [2]", got)
	}
	if ts = s.TierStats(); ts.ColdFaults != 2 || ts.ColdUsers != 5 {
		t.Fatalf("repeat cold query changed residency: %+v", ts)
	}

	// Failed cold read: the extent stays cold, the answer degrades to the
	// (empty) hot tier, and the error is sticky for observability.
	store.readErr = errors.New("injected cold read failure")
	if got := coldSet(s, 3, 2); len(got) != 0 {
		t.Fatalf("degraded I(u3) = %v, want hot-only empty", got)
	}
	ts = s.TierStats()
	if ts.ColdReadErrs != 1 || ts.ColdUsers != 5 {
		t.Fatalf("after failed cold read: %+v", ts)
	}
	if s.ColdErr() == nil {
		t.Fatal("ColdErr not sticky after failed cold read")
	}

	// Ingest touching a spilled user performs no I/O (the store is still
	// failing reads — it is never asked): the contribution grows a hot
	// residue in front of the cold extent.
	reads := store.reads
	if _, err := s.Ingest(Action{ID: 11, User: 3, Parent: NoParent}); err != nil {
		t.Fatal(err)
	}
	checkLogBytes(t, s)
	if store.reads != reads {
		t.Fatalf("ingest read the cold store %d times", store.reads-reads)
	}
	if got := coldSet(s, 3, 2); !reflect.DeepEqual(got, []UserID{3}) {
		t.Fatalf("degraded both-tier I(u3) = %v, want hot residue [3]", got)
	}

	// Healed store: the same query now merges the tiers, deduplicating the
	// contributor that re-contributed after the spill — still without
	// changing residency.
	store.readErr = nil
	if rec := s.InfluenceRecency(3, 2); len(rec) != 1 || rec[0] != (Contrib{3, 11}) {
		t.Fatalf("healed merged recency log = %v, want [{3 11}]", rec)
	}
	if ts = s.TierStats(); ts.ColdUsers != 5 {
		t.Fatalf("merged query changed residency: %+v", ts)
	}

	// Failed spill: every candidate log stays hot and queryable; only the
	// counters and sticky error record the degradation. The read fault also
	// covers the fold path: user 3 is a candidate with an old extent whose
	// fold read fails, so it is skipped and simply stays both-tier.
	store.writeErr = errors.New("injected spill failure")
	store.readErr = errors.New("injected fold read failure")
	for id := ActionID(12); id <= 19; id++ {
		if _, err := s.Ingest(Action{ID: id, User: UserID(100 + id), Parent: NoParent}); err != nil {
			t.Fatal(err)
		}
	}
	before := s.TierStats()
	// The horizon does not move, but the early-return path still runs the
	// budget check: hot is now 13 entries = 208 bytes against budget 100.
	s.Advance(2)
	checkLogBytes(t, s)
	ts = s.TierStats()
	if ts.SpillErrs != 1 {
		t.Fatalf("failed spill not counted: %+v", ts)
	}
	if ts.ColdReadErrs != before.ColdReadErrs+1 {
		t.Fatalf("failed fold read not counted: %+v vs %+v", ts, before)
	}
	if ts.ColdUsers != before.ColdUsers || ts.Spills != before.Spills ||
		ts.HotLogBytes != before.HotLogBytes {
		t.Fatalf("failed spill moved logs: %+v vs %+v", ts, before)
	}
	if got := coldSet(s, 113, 3); !reflect.DeepEqual(got, []UserID{113}) {
		t.Fatalf("I(u113) after failed spill = %v, want [113]", got)
	}

	// Heal the disk: the retry spills nine logs, folding user 3's old
	// extent into the new segment (old extent released, merged entries
	// deduped, still one extent per user).
	store.writeErr, store.readErr = nil, nil
	s.Advance(2)
	checkLogBytes(t, s)
	ts = s.TierStats()
	if ts.Spills != 2 || ts.SpilledLogs != 5+9 {
		t.Fatalf("healed spill did not run: %+v", ts)
	}
	if ts.HotLogBytes != 4*contribBytes {
		t.Fatalf("hot tier after healed spill: %+v", ts)
	}
	if store.refs[1] != 4 {
		t.Fatalf("fold did not release user 3's old extent: seg1 refs = %d", store.refs[1])
	}
	if rec := s.InfluenceRecency(3, 2); len(rec) != 1 || rec[0] != (Contrib{3, 11}) {
		t.Fatalf("folded recency log = %v, want [{3 11}]", rec)
	}

	// Expiry drops dead extents without reading them, and every segment
	// reference drains with them.
	reads = store.reads
	s.Advance(20)
	checkLogBytes(t, s)
	ts = s.TierStats()
	if ts.ColdUsers != 0 || ts.ColdLogBytes != 0 {
		t.Fatalf("expired extents survived Advance: %+v", ts)
	}
	if store.reads != reads {
		t.Fatalf("expiry read %d cold logs", store.reads-reads)
	}
	for seg, refs := range store.refs {
		if refs != 0 {
			t.Fatalf("segment %d still holds %d references after full expiry", seg, refs)
		}
	}
}

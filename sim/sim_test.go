package sim_test

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/stream"
	"repro/sim"
)

func paperStream() []sim.Action {
	return []sim.Action{
		{ID: 1, User: 1, Parent: sim.NoParent},
		{ID: 2, User: 2, Parent: 1},
		{ID: 3, User: 3, Parent: sim.NoParent},
		{ID: 4, User: 3, Parent: 1},
		{ID: 5, User: 4, Parent: 3},
		{ID: 6, User: 1, Parent: 3},
		{ID: 7, User: 5, Parent: 3},
		{ID: 8, User: 4, Parent: 7},
		{ID: 9, User: 2, Parent: sim.NoParent},
		{ID: 10, User: 6, Parent: 9},
	}
}

func TestQuickstartFlow(t *testing.T) {
	tr, err := sim.New(sim.Config{K: 2, WindowSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.ProcessAll(paperStream()); err != nil {
		t.Fatal(err)
	}
	if got := len(tr.Seeds()); got == 0 || got > 2 {
		t.Fatalf("seeds = %v", tr.Seeds())
	}
	if tr.Value() <= 0 || tr.Value() > 6 {
		t.Fatalf("value = %v, want in (0, 6]", tr.Value())
	}
	if tr.Processed() != 10 {
		t.Fatalf("processed = %d, want 10", tr.Processed())
	}
}

func TestDefaultsApplied(t *testing.T) {
	tr, err := sim.New(sim.Config{K: 1, WindowSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	st := tr.Stats()
	if st.Framework != sim.SIC || st.Oracle != sim.SieveStreaming {
		t.Fatalf("defaults: %+v", st)
	}
}

func TestConfigErrors(t *testing.T) {
	cases := []sim.Config{
		{K: 0, WindowSize: 4},
		{K: 1, WindowSize: 0},
		{K: 1, WindowSize: 4, Beta: -0.5},
		{K: 1, WindowSize: 4, Beta: 2},
		{K: 1, WindowSize: 4, Oracle: sim.Oracle(9)},
		{K: 1, WindowSize: 4, Slide: 9},
	}
	for i, cfg := range cases {
		if _, err := sim.New(cfg); err == nil {
			t.Errorf("config %d: expected error", i)
		}
	}
}

func TestAllOraclesAndFrameworksRun(t *testing.T) {
	actions := randomActions(7, 500, 25)
	for _, fw := range []sim.Framework{sim.SIC, sim.IC} {
		for _, o := range []sim.Oracle{sim.SieveStreaming, sim.ThresholdStream, sim.BlogWatch, sim.MkC} {
			tr, err := sim.New(sim.Config{K: 5, WindowSize: 100, Framework: fw, Oracle: o, Beta: 0.2})
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.ProcessAll(actions); err != nil {
				t.Fatalf("%v/%v: %v", fw, o, err)
			}
			if tr.Value() <= 0 {
				t.Errorf("%v/%v: zero value", fw, o)
			}
			if len(tr.Seeds()) == 0 || len(tr.Seeds()) > 5 {
				t.Errorf("%v/%v: seeds=%v", fw, o, tr.Seeds())
			}
		}
	}
}

func TestFilterRestrictsSubStream(t *testing.T) {
	// Topic-aware SIM (Appendix A): only even users' actions are on-topic.
	tr, err := sim.New(sim.Config{
		K: 2, WindowSize: 8,
		Filter: func(a sim.Action) bool { return a.User%2 == 0 },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.ProcessAll(paperStream()); err != nil {
		t.Fatal(err)
	}
	if tr.Processed() != 5 { // u2, u4, u4, u2, u6
		t.Fatalf("processed = %d, want 5 filtered actions", tr.Processed())
	}
	for _, s := range tr.Seeds() {
		if s%2 != 0 {
			t.Fatalf("off-topic seed %d", s)
		}
	}
}

func TestWeightedObjectiveChangesSeeds(t *testing.T) {
	// Conformity-aware SIM: make u6's audience precious.
	actions := paperStream()
	plain, err := sim.New(sim.Config{K: 1, WindowSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	weighted, err := sim.New(sim.Config{
		K: 1, WindowSize: 8,
		Weights: sim.WeightTable{W: map[sim.UserID]float64{6: 100}, Default: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.ProcessAll(actions); err != nil {
		t.Fatal(err)
	}
	if err := weighted.ProcessAll(actions); err != nil {
		t.Fatal(err)
	}
	if weighted.Value() < 100 {
		t.Fatalf("weighted value = %v, want >= 100 (must cover u6)", weighted.Value())
	}
	ws := weighted.Seeds()
	if len(ws) != 1 || (ws[0] != 2 && ws[0] != 6) {
		t.Fatalf("weighted seeds = %v, want the user covering u6", ws)
	}
	if plain.Value() > 6 {
		t.Fatalf("plain value = %v", plain.Value())
	}
}

func TestInfluenceSetAndWindowStart(t *testing.T) {
	tr, err := sim.New(sim.Config{K: 2, WindowSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.ProcessAll(paperStream()); err != nil {
		t.Fatal(err)
	}
	if ws := tr.WindowStart(); ws != 3 {
		t.Fatalf("window start = %d, want 3", ws)
	}
	got := tr.InfluenceSet(1)
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("I_10(u1) = %v, want [1 3]", got)
	}
}

func TestFrameworkAndOracleStrings(t *testing.T) {
	if sim.SIC.String() != "SIC" || sim.IC.String() != "IC" {
		t.Error("framework names wrong")
	}
	if sim.Framework(9).String() != "Framework(9)" {
		t.Error("unknown framework name wrong")
	}
	names := []string{"SieveStreaming", "ThresholdStream", "BlogWatch", "MkC"}
	for i, want := range names {
		if got := sim.Oracle(i).String(); got != want {
			t.Errorf("oracle %d name = %q, want %q", i, got, want)
		}
	}
}

func TestStatsSnapshot(t *testing.T) {
	tr, err := sim.New(sim.Config{K: 3, WindowSize: 50, Framework: sim.IC, Oracle: sim.BlogWatch})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.ProcessAll(randomActions(3, 200, 10)); err != nil {
		t.Fatal(err)
	}
	st := tr.Stats()
	if st.Framework != sim.IC || st.Oracle != sim.BlogWatch {
		t.Fatalf("stats echo wrong: %+v", st)
	}
	if st.Checkpoints != 50 {
		t.Fatalf("IC checkpoints = %d, want 50", st.Checkpoints)
	}
	if st.Processed != 200 || st.ElementsFed == 0 || st.AvgCheckpoints <= 0 {
		t.Fatalf("stats not populated: %+v", st)
	}
}

// TestScanCountersWithinFeed: the sieve oracles' work counters can only
// count what the framework fed them — at most one scan per element, at most
// the element's influence set per scan. The feed is recomputed here from a
// second stream index by the Set-Stream Mapping's rule — a contributor's
// element reaches the checkpoints that start after the performer's previous
// contribution to it (Delta.Prev) and hold a non-empty set — and the
// checkpoints it skips are ElementsUnchanged. Under IC with a window as long
// as the stream nothing expires, so the checkpoints live after an action are
// the ones it fed. The grids' slot visits lie between the scans and the
// elements fed times the most instances a grid holds, and survive the
// deletion of a checkpoint.
func TestScanCountersWithinFeed(t *testing.T) {
	const k, beta = 5, 0.1
	actions := randomActions(8, 1500, 40)
	tr, err := sim.New(sim.Config{K: k, WindowSize: len(actions), Slide: 25, Beta: beta, Framework: sim.IC})
	if err != nil {
		t.Fatal(err)
	}
	mirror := stream.New()
	var fed, unchanged, members int64
	for _, a := range actions {
		if err := tr.Process(a); err != nil {
			t.Fatal(err)
		}
		d, err := mirror.Ingest(a)
		if err != nil {
			t.Fatal(err)
		}
		starts := tr.CheckpointStarts()
		for i, u := range d.Contributors {
			list := mirror.InfluenceRecency(u, starts[0])
			for _, s := range starts {
				n := len(stream.PrefixFor(list, s))
				switch {
				case n == 0:
				case s <= d.Prev[i]:
					unchanged++
				default:
					fed++
					members += int64(n)
				}
			}
		}
	}
	snap := tr.Snapshot()
	if snap.ElementsFed != fed || snap.ElementsUnchanged != unchanged {
		t.Fatalf("elements fed = %d, unchanged = %d; recomputed %d, %d", snap.ElementsFed, snap.ElementsUnchanged, fed, unchanged)
	}
	if snap.Scans <= 0 || snap.Scans > fed {
		t.Fatalf("scans = %d, want in (0, %d elements fed]", snap.Scans, fed)
	}
	if snap.ScanMembers < snap.Scans || snap.ScanMembers > members {
		t.Fatalf("scan members = %d, want in [%d scans, %d members fed]", snap.ScanMembers, snap.Scans, members)
	}
	// A scan needs an undecided slot, and an element visits each of the
	// grid's live instances at most once: ⌊log₁₊β 2k⌋ + 2 of them.
	most := int64(math.Floor(math.Log(2*k)/math.Log1p(beta)+1e-9)) + 2
	if v := tr.Internal().Stats().SlotVisits; v < snap.Scans || v > fed*most {
		t.Fatalf("slot visits = %d, want in [%d scans, %d elements fed × %d instances]", v, snap.Scans, fed, most)
	}

	// Under SIC with a short window checkpoints die, and their oracles are
	// reset for reuse: the framework banks a retired oracle's visits first,
	// so the total never falls from one action to the next.
	sic, err := sim.New(sim.Config{K: k, WindowSize: 100, Slide: 10, Beta: beta, Framework: sim.SIC})
	if err != nil {
		t.Fatal(err)
	}
	var last int64
	for i, a := range actions {
		if err := sic.Process(a); err != nil {
			t.Fatal(err)
		}
		v := sic.Internal().Stats().SlotVisits
		if v < last {
			t.Fatalf("action %d: slot visits fell from %d to %d", i, last, v)
		}
		last = v
	}
	if st := sic.Internal().Stats(); st.Deleted == 0 || last == 0 {
		t.Fatalf("short-window SIC run deleted %d checkpoints and visited %d slots: retire never ran", st.Deleted, last)
	}
}

func TestProcessAllStopsAtError(t *testing.T) {
	tr, err := sim.New(sim.Config{K: 1, WindowSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	bad := []sim.Action{
		{ID: 1, User: 1, Parent: sim.NoParent},
		{ID: 1, User: 2, Parent: sim.NoParent},
	}
	if err := tr.ProcessAll(bad); err == nil {
		t.Fatal("expected duplicate-ID error")
	}
	if tr.Processed() != 1 {
		t.Fatalf("processed = %d, want 1", tr.Processed())
	}
}

func TestTimeBasedWindow(t *testing.T) {
	tr, err := sim.New(sim.Config{K: 1, WindowSize: 60, Slide: 10, TimeBased: true})
	if err != nil {
		t.Fatal(err)
	}
	// A burst at t≈1000, then one action much later.
	burst := []sim.Action{
		{ID: 1000, User: 1, Parent: sim.NoParent},
		{ID: 1001, User: 2, Parent: 1000},
		{ID: 1002, User: 3, Parent: 1000},
	}
	if err := tr.ProcessAll(burst); err != nil {
		t.Fatal(err)
	}
	if tr.Value() != 3 {
		t.Fatalf("burst value = %v, want 3", tr.Value())
	}
	if err := tr.Process(sim.Action{ID: 5000, User: 9, Parent: sim.NoParent}); err != nil {
		t.Fatal(err)
	}
	// 4000 time units later the burst has expired even though only four
	// actions arrived.
	if tr.Value() != 1 {
		t.Fatalf("post-gap value = %v, want 1", tr.Value())
	}
	if got := tr.Seeds(); len(got) != 1 || got[0] != 9 {
		t.Fatalf("post-gap seeds = %v", got)
	}
}

func randomActions(seed int64, n, users int) []sim.Action {
	rng := rand.New(rand.NewSource(seed))
	actions := make([]sim.Action, n)
	for i := range actions {
		a := sim.Action{ID: sim.ActionID(i + 1), User: sim.UserID(rng.Intn(users)), Parent: sim.NoParent}
		if i > 0 && rng.Float64() < 0.7 {
			a.Parent = sim.ActionID(i + 1 - (rng.Intn(min(i, 60)) + 1))
		}
		actions[i] = a
	}
	return actions
}

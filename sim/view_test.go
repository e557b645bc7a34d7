package sim_test

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/sim"
)

// checkView asserts that the pool a snapshot publishes is the pool read from
// scratch — tr.Candidates() with tr.InfluenceSet per member — and that each
// SeedInfluence entry is its seed's InfluenceSet. tr must not have ingested
// anything since snap was taken.
func checkView(t *testing.T, label string, tr *sim.Tracker, snap sim.Snapshot) {
	t.Helper()
	scratch := func(u sim.UserID) []sim.UserID {
		if set := tr.InfluenceSet(u); set != nil {
			return set
		}
		return []sim.UserID{}
	}
	users := tr.Candidates()
	if !slices.IsSorted(users) {
		t.Fatalf("%s: Candidates() not ascending: %v", label, users)
	}
	if len(snap.Candidates) != len(users) || snap.Candidates == nil {
		t.Fatalf("%s: snapshot pool has %d entries, Candidates() %d", label, len(snap.Candidates), len(users))
	}
	for i, c := range snap.Candidates {
		if c.User != users[i] {
			t.Fatalf("%s: pool[%d] is user %d, Candidates()[%d] is %d", label, i, c.User, i, users[i])
		}
		if want := scratch(c.User); c.Influenced == nil || !reflect.DeepEqual(c.Influenced, want) {
			t.Fatalf("%s: pool[%d] (user %d) = %v, InfluenceSet = %v", label, i, c.User, c.Influenced, want)
		}
		if got, ok := snap.Influence(c.User); !ok || !reflect.DeepEqual(got, c.Influenced) {
			t.Fatalf("%s: Influence(%d) = %v, %v; want the pool entry %v", label, c.User, got, ok, c.Influenced)
		}
	}
	if len(snap.SeedInfluence) != len(snap.Seeds) {
		t.Fatalf("%s: %d SeedInfluence entries for %d seeds", label, len(snap.SeedInfluence), len(snap.Seeds))
	}
	for i, si := range snap.SeedInfluence {
		if want := scratch(si.User); si.User != snap.Seeds[i] || si.Influenced == nil || !reflect.DeepEqual(si.Influenced, want) {
			t.Fatalf("%s: SeedInfluence[%d] = %+v, want seed %d with %v", label, i, si, snap.Seeds[i], want)
		}
	}
}

// TestViewMatchesScratch pins the identity the incremental candidate view
// rests on: whatever mix of carried-over, refreshed and rebuilt entries a
// publish ends up with, the pool it publishes is the one read from scratch.
// The publish cadences cover one action per publish (every entry carried
// over but the touched ones), the serving layer's small and medium batches,
// and a whole window per publish (more touched logs than the stream tracks).
func TestViewMatchesScratch(t *testing.T) {
	ds := identityDatasets()[1] // Twitter-like
	for _, fw := range []sim.Framework{sim.SIC, sim.IC} {
		for _, orc := range []sim.Oracle{sim.SieveStreaming, sim.ThresholdStream, sim.BlogWatch} {
			for _, every := range []int{1, 4, 50, 700} {
				t.Run(fmt.Sprintf("%v/%v/every=%d", fw, orc, every), func(t *testing.T) {
					tr, err := sim.New(sim.Config{K: 6, WindowSize: 700, Slide: 50, Beta: 0.1, Framework: fw, Oracle: orc})
					if err != nil {
						t.Fatal(err)
					}
					defer tr.Close()
					var last sim.Snapshot
					for i, a := range ds.actions {
						if err := tr.Process(a); err != nil {
							t.Fatal(err)
						}
						if (i+1)%every == 0 {
							last = tr.Snapshot()
							checkView(t, fmt.Sprintf("after action %d", i+1), tr, last)
						}
					}
					publishes := int64(len(ds.actions) / every)
					if last.ViewRebuilds+last.ViewReuses != publishes {
						t.Errorf("%d rebuilds + %d reuses over %d publishes", last.ViewRebuilds, last.ViewReuses, publishes)
					}
					// The cadences the view exists for: most publishes carry
					// the pool over and re-read a few entries, BlogWatch's
					// seed-only pool included.
					if every <= 4 && (last.ViewReuses <= last.ViewRebuilds || last.ViewRefreshed == 0) {
						t.Errorf("view hardly reused: %d rebuilds, %d reuses, %d refreshed",
							last.ViewRebuilds, last.ViewReuses, last.ViewRefreshed)
					}
				})
			}
		}
	}
}

// TestViewAcrossSaveLoad: a tracker restored mid-stream starts without a
// view, rebuilds one, and from then on publishes the same pools as the
// tracker that was never interrupted.
func TestViewAcrossSaveLoad(t *testing.T) {
	ds := identityDatasets()[0] // Reddit-like
	cfg := sim.Config{K: 6, WindowSize: 700, Slide: 50, Beta: 0.1}
	ref, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	cut := len(ds.actions)/2 + 3
	for i, a := range ds.actions[:cut] {
		if err := ref.Process(a); err != nil {
			t.Fatal(err)
		}
		if (i+1)%4 == 0 {
			ref.Snapshot() // the saved tracker has a view in use
		}
	}
	var buf bytes.Buffer
	if err := ref.SaveTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := sim.Load(&buf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	first := loaded.Snapshot()
	checkView(t, "first publish after Load", loaded, first)
	if first.ViewRebuilds != 1 || first.ViewReuses != 0 {
		t.Errorf("first publish after Load: %d rebuilds, %d reuses", first.ViewRebuilds, first.ViewReuses)
	}
	for i, a := range ds.actions[cut:] {
		if err := ref.Process(a); err != nil {
			t.Fatal(err)
		}
		if err := loaded.Process(a); err != nil {
			t.Fatal(err)
		}
		if (i+1)%4 != 0 {
			continue
		}
		label := fmt.Sprintf("action %d", cut+i+1)
		snap := loaded.Snapshot()
		checkView(t, label, loaded, snap)
		if want := ref.Snapshot(); !reflect.DeepEqual(snap.Candidates, want.Candidates) {
			t.Fatalf("%s: loaded tracker publishes %v, uninterrupted %v", label, snap.Candidates, want.Candidates)
		}
	}
}

// TestViewWithSpilledCandidates runs the view under a memory budget tight
// enough that pool members' logs spill, are re-touched and re-spill between
// publishes: the published pool stays the from-scratch one, and equal to an
// unbudgeted tracker's.
func TestViewWithSpilledCandidates(t *testing.T) {
	ds := identityDatasets()[2] // SYN-O
	base := sim.Config{K: 6, WindowSize: 700, Slide: 50, Beta: 0.1}
	ref, err := sim.New(base)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	budgeted := base
	budgeted.SpillDir = t.TempDir()
	budgeted.MemoryBudgetBytes = spillBudget
	tr, err := sim.New(budgeted)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	var snap sim.Snapshot
	coldReads := false
	for i, a := range ds.actions {
		if err := ref.Process(a); err != nil {
			t.Fatal(err)
		}
		if err := tr.Process(a); err != nil {
			t.Fatal(err)
		}
		if (i+1)%4 != 0 {
			continue
		}
		label := fmt.Sprintf("action %d", i+1)
		faults := tr.Internal().Stream().TierStats().ColdFaults
		snap = tr.Snapshot()
		// A publish that read a cold extent refreshed a spilled candidate.
		coldReads = coldReads || snap.ColdFaults > faults
		checkView(t, label, tr, snap)
		if want := ref.Snapshot(); !reflect.DeepEqual(snap.Candidates, want.Candidates) {
			t.Fatalf("%s: budgeted tracker publishes %v, unbudgeted %v", label, snap.Candidates, want.Candidates)
		}
	}
	if snap.Spills == 0 || !coldReads {
		t.Fatalf("spills=%d, cold reads during a publish=%v: the test exercised nothing", snap.Spills, coldReads)
	}
	if snap.ViewReuses <= snap.ViewRebuilds {
		t.Errorf("view hardly reused under a budget: %d rebuilds, %d reuses", snap.ViewRebuilds, snap.ViewReuses)
	}
}

// FuzzSnapshotView drives a small SYN-O stream into a tracker built from
// the input — seed, oracle (sieve, threshold or BlogWatch), framework and
// publish cadence in actions per ProcessAll — and checks every publish
// against the pool read from scratch. Cadences run from 1 to 256 actions.
func FuzzSnapshotView(f *testing.F) {
	for orc := range uint8(3) {
		for _, every := range []uint8{0, 3, 49, 255} {
			f.Add(int64(orc)+1, orc, orc != 1, every)
		}
	}
	oracles := []sim.Oracle{sim.SieveStreaming, sim.ThresholdStream, sim.BlogWatch}
	f.Fuzz(func(t *testing.T, seed int64, orc uint8, sparse bool, every uint8) {
		cfg := sim.Config{K: 4, WindowSize: 200, Slide: 10, Beta: 0.2, Framework: sim.IC, Oracle: oracles[int(orc)%len(oracles)]}
		if sparse {
			cfg.Framework = sim.SIC
		}
		tr, err := sim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		actions := gen.Stream(gen.SynO(100, 800, 200, seed))
		for off, n := 0, int(every)+1; off < len(actions); off += n {
			end := min(off+n, len(actions))
			if err := tr.ProcessAll(actions[off:end]); err != nil {
				t.Fatal(err)
			}
			checkView(t, fmt.Sprintf("after action %d", end), tr, tr.Snapshot())
		}
	})
}

package sim_test

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/sim"
)

// fig1Actions is the paper's Figure 1 stream, the shared fixture of the
// example tests.
func fig1Actions() []sim.Action {
	return []sim.Action{
		{ID: 1, User: 1, Parent: sim.NoParent},
		{ID: 2, User: 2, Parent: 1},
		{ID: 3, User: 3, Parent: sim.NoParent},
		{ID: 4, User: 3, Parent: 1},
		{ID: 5, User: 4, Parent: 3},
		{ID: 6, User: 1, Parent: 3},
		{ID: 7, User: 5, Parent: 3},
		{ID: 8, User: 4, Parent: 7},
	}
}

// TestSnapshotMatchesQueries asserts that Snapshot reports exactly what the
// individual query methods report, and that the snapshot's slices are
// copies, not views into tracker-owned memory.
func TestSnapshotMatchesQueries(t *testing.T) {
	for _, fwk := range []sim.Framework{sim.SIC, sim.IC} {
		tr, err := sim.New(sim.Config{K: 2, WindowSize: 6, Framework: fwk, BatchSize: 3})
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.ProcessAll(fig1Actions()); err != nil {
			t.Fatal(err)
		}
		snap := tr.Snapshot()
		if got, want := snap.Seeds, tr.Seeds(); !reflect.DeepEqual(got, append([]sim.UserID{}, want...)) {
			t.Errorf("%v: snapshot seeds %v, query %v", fwk, got, want)
		}
		if snap.Value != tr.Value() {
			t.Errorf("%v: snapshot value %v, query %v", fwk, snap.Value, tr.Value())
		}
		if snap.WindowStart != tr.WindowStart() {
			t.Errorf("%v: snapshot window start %v, query %v", fwk, snap.WindowStart, tr.WindowStart())
		}
		if snap.Processed != tr.Processed() {
			t.Errorf("%v: snapshot processed %v, query %v", fwk, snap.Processed, tr.Processed())
		}
		if !reflect.DeepEqual(snap.CheckpointStarts, tr.CheckpointStarts()) {
			t.Errorf("%v: snapshot starts %v, query %v", fwk, snap.CheckpointStarts, tr.CheckpointStarts())
		}
		if !reflect.DeepEqual(snap.CheckpointValues, tr.CheckpointValues()) {
			t.Errorf("%v: snapshot cp values %v, query %v", fwk, snap.CheckpointValues, tr.CheckpointValues())
		}
		if snap.Checkpoints != len(snap.CheckpointStarts) {
			t.Errorf("%v: Checkpoints %d != len(starts) %d", fwk, snap.Checkpoints, len(snap.CheckpointStarts))
		}
		if snap.Framework != fwk {
			t.Errorf("snapshot framework %v, want %v", snap.Framework, fwk)
		}
		if len(snap.SeedInfluence) != len(snap.Seeds) {
			t.Fatalf("%v: %d SeedInfluence entries for %d seeds", fwk, len(snap.SeedInfluence), len(snap.Seeds))
		}
		for i, si := range snap.SeedInfluence {
			if si.User != snap.Seeds[i] {
				t.Errorf("%v: SeedInfluence[%d].User = %d, want seed %d", fwk, i, si.User, snap.Seeds[i])
			}
			want := tr.InfluenceSet(si.User)
			if want == nil {
				want = []sim.UserID{}
			}
			if si.Influenced == nil || !reflect.DeepEqual(si.Influenced, want) {
				t.Errorf("%v: SeedInfluence[%d] = %v, want %v (non-nil)", fwk, i, si.Influenced, want)
			}
		}

		// Mutating the snapshot must not disturb the tracker.
		if len(snap.Seeds) == 0 {
			t.Fatalf("%v: no seeds on the Figure 1 stream", fwk)
		}
		snap.Seeds[0] = 999
		snap.CheckpointValues[0] = -1
		if tr.Seeds()[0] == 999 || tr.CheckpointValues()[0] == -1 {
			t.Errorf("%v: snapshot shares memory with the tracker", fwk)
		}
	}
}

// TestProcessAllAppliesShortLastBatch asserts a call's last batch, however
// far short of BatchSize, is applied before ProcessAll returns: the Snapshot
// that follows covers it.
func TestProcessAllAppliesShortLastBatch(t *testing.T) {
	tr, err := sim.New(sim.Config{K: 2, WindowSize: 8, BatchSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.ProcessAll(fig1Actions()); err != nil {
		t.Fatal(err)
	}
	if snap := tr.Snapshot(); snap.Processed != 8 {
		t.Fatalf("snapshot processed %d, want 8 (short batch not applied)", snap.Processed)
	}
}

// TestSnapshotJSON round-trips a snapshot through encoding/json, asserting
// the by-name encoding of Framework and Oracle.
func TestSnapshotJSON(t *testing.T) {
	tr, err := sim.New(sim.Config{K: 2, WindowSize: 8, Oracle: sim.ThresholdStream})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.ProcessAll(fig1Actions()); err != nil {
		t.Fatal(err)
	}
	snap := tr.Snapshot()
	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m["framework"] != "SIC" || m["oracle"] != "ThresholdStream" {
		t.Errorf("framework/oracle encoded as %v/%v, want SIC/ThresholdStream", m["framework"], m["oracle"])
	}
	var back sim.Snapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, snap) {
		t.Errorf("snapshot did not survive a JSON round-trip:\n got %+v\nwant %+v", back, snap)
	}
}

func TestParseFrameworkOracle(t *testing.T) {
	cases := []struct {
		in    string
		fwk   sim.Framework
		fwkOK bool
		orc   sim.Oracle
		orcOK bool
	}{
		{"sic", sim.SIC, true, 0, false},
		{"IC", sim.IC, true, 0, false},
		{" Sieve ", 0, false, sim.SieveStreaming, true},
		{"SieveStreaming", 0, false, sim.SieveStreaming, true},
		{"threshold", 0, false, sim.ThresholdStream, true},
		{"ThresholdStream", 0, false, sim.ThresholdStream, true},
		{"BlogWatch", 0, false, sim.BlogWatch, true},
		{"mkc", 0, false, sim.MkC, true},
		{"bogus", 0, false, 0, false},
	}
	for _, c := range cases {
		fwk, err := sim.ParseFramework(c.in)
		if (err == nil) != c.fwkOK || (c.fwkOK && fwk != c.fwk) {
			t.Errorf("ParseFramework(%q) = %v, %v; want %v, ok=%v", c.in, fwk, err, c.fwk, c.fwkOK)
		}
		orc, err := sim.ParseOracle(c.in)
		if (err == nil) != c.orcOK || (c.orcOK && orc != c.orc) {
			t.Errorf("ParseOracle(%q) = %v, %v; want %v, ok=%v", c.in, orc, err, c.orc, c.orcOK)
		}
	}
}

func TestFrameworkOracleTextRoundTrip(t *testing.T) {
	for _, fwk := range []sim.Framework{sim.SIC, sim.IC} {
		b, err := fwk.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var back sim.Framework
		if err := back.UnmarshalText(b); err != nil || back != fwk {
			t.Errorf("framework %v round-tripped to %v (%v)", fwk, back, err)
		}
	}
	for _, orc := range []sim.Oracle{sim.SieveStreaming, sim.ThresholdStream, sim.BlogWatch, sim.MkC} {
		b, err := orc.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var back sim.Oracle
		if err := back.UnmarshalText(b); err != nil || back != orc {
			t.Errorf("oracle %v round-tripped to %v (%v)", orc, back, err)
		}
	}
	if _, err := sim.Framework(42).MarshalText(); err == nil {
		t.Error("marshaling an invalid framework should fail")
	}
	if _, err := sim.Oracle(42).MarshalText(); err == nil {
		t.Error("marshaling an invalid oracle should fail")
	}
}

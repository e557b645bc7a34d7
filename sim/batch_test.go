package sim_test

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/sim"
)

// rmatStream generates the SYN-O dataset at test scale: an R-MAT user graph
// supplies the activity skew, exactly as in the paper's §6.1.
func rmatStream(t *testing.T) []sim.Action {
	t.Helper()
	return gen.Stream(gen.SynO(800, 6000, 1500, 42))
}

// feedCalls hands actions to ProcessAll per actions at a time.
func feedCalls(t *testing.T, tr *sim.Tracker, actions []sim.Action, per int) {
	t.Helper()
	for len(actions) > 0 {
		n := min(per, len(actions))
		if err := tr.ProcessAll(actions[:n]); err != nil {
			t.Fatal(err)
		}
		actions = actions[n:]
	}
}

// feedBatches ingests actions through the framework underneath tr in batches
// of the given sizes, then the rest in one: the reference for where
// ProcessAll must cut. References are compared by Snapshot — the answer, the
// checkpoint chain, the candidate pool and the feed counters, each read once
// on both sides.
func feedBatches(t *testing.T, tr *sim.Tracker, actions []sim.Action, sizes ...int) {
	t.Helper()
	for _, n := range append(sizes, len(actions)) {
		n = min(n, len(actions))
		if err := tr.Internal().ProcessBatch(actions[:n]); err != nil {
			t.Fatal(err)
		}
		actions = actions[n:]
	}
}

// savedState is the tracker's whole persisted state: equal bytes mean the
// same stream index, checkpoint chain, oracle states and counters.
func savedState(t *testing.T, tr *sim.Tracker) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.SaveTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBatchedIngestion checks the batched path end to end, a slide per
// ProcessAll call: it really batches (fewer, coarser oracle elements than
// the serial run), window position tracks the serial run, and a fixed
// configuration is deterministic across runs.
func TestBatchedIngestion(t *testing.T) {
	actions := rmatStream(t)
	mk := func(batch int) *sim.Tracker {
		tr, err := sim.New(sim.Config{K: 8, WindowSize: 1500, Slide: 100, Beta: 0.1, BatchSize: batch})
		if err != nil {
			t.Fatal(err)
		}
		feedCalls(t, tr, actions, 100)
		return tr
	}
	serial, b1, b2 := mk(1), mk(100), mk(100)
	if s, b := serial.Stats().ElementsFed, b1.Stats().ElementsFed; b >= s {
		t.Fatalf("batched run fed %d elements, serial %d: nothing was batched", b, s)
	}
	if s, b := serial.Processed(), b1.Processed(); s != b {
		t.Fatalf("processed diverged: %d vs %d", s, b)
	}
	if s, b := serial.WindowStart(), b1.WindowStart(); s != b {
		t.Fatalf("window start diverged: %d vs %d", s, b)
	}
	if b1.Value() <= 0 || len(b1.Seeds()) == 0 {
		t.Fatalf("degenerate batched answer: value %v seeds %v", b1.Value(), b1.Seeds())
	}
	// Same config, same stream → identical results (determinism).
	if v1, v2 := b1.Value(), b2.Value(); v1 != v2 {
		t.Fatalf("batched runs nondeterministic: %v vs %v", v1, v2)
	}
	if s1, s2 := b1.Seeds(), b2.Seeds(); !reflect.DeepEqual(s1, s2) {
		t.Fatalf("batched runs nondeterministic: %v vs %v", s1, s2)
	}
	// Coarser elements stay within the guarantee band of the serial value.
	if sv, bv := serial.Value(), b1.Value(); bv < 0.5*sv || bv > 2*sv {
		t.Fatalf("batched value %v implausibly far from serial %v", bv, sv)
	}
}

// TestProcessAllIsTheFlushBoundary: nothing is carried from one call to the
// next. Two calls of 30 actions at BatchSize 50 are two batches of 30 — not
// one of 50 and, some time later, one of 10.
func TestProcessAllIsTheFlushBoundary(t *testing.T) {
	actions := rmatStream(t)[:60]
	cfg := sim.Config{K: 4, WindowSize: 40, Slide: 5, BatchSize: 50}
	tr, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feedCalls(t, tr, actions, 30)
	ref, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feedBatches(t, ref, actions, 30)
	if !reflect.DeepEqual(tr.Snapshot(), ref.Snapshot()) {
		t.Fatal("two ProcessAll calls of 30 differ from two batches of 30")
	}
	// The cut is observable on this stream, or the comparison proves nothing.
	other, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feedBatches(t, other, actions, 50)
	if reflect.DeepEqual(ref.Snapshot(), other.Snapshot()) {
		t.Fatal("batches of 30+30 and 50+10 leave the same state: the test stream cannot tell them apart")
	}
}

// TestProcessAllStopsWithPrefixApplied: a stream-order error ends the call
// with every action before the offender applied, in the batches the call
// would have cut anyway plus one short one; and batches count accepted
// actions, not offered ones.
func TestProcessAllStopsWithPrefixApplied(t *testing.T) {
	actions := rmatStream(t)[:80]
	t.Run("rewinding ID", func(t *testing.T) {
		cfg := sim.Config{K: 4, WindowSize: 40, Slide: 5, BatchSize: 7}
		bad := sim.Action{ID: actions[3].ID, User: 1, Parent: sim.NoParent}
		fed := append(append(append([]sim.Action{}, actions[:40]...), bad), actions[40:]...)
		tr, err := sim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		err = tr.ProcessAll(fed)
		if !errors.Is(err, sim.ErrNonMonotonicID) || !strings.Contains(err.Error(), fmt.Sprint(bad)) {
			t.Fatalf("err = %v, want ErrNonMonotonicID naming action %v", err, bad)
		}
		if got := tr.Processed(); got != 40 {
			t.Fatalf("Processed = %d, want the 40 actions before the offender", got)
		}
		ref, err := sim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		feedBatches(t, ref, actions[:40], 7, 7, 7, 7, 7) // + the short one of 5
		if !reflect.DeepEqual(tr.Snapshot(), ref.Snapshot()) {
			t.Fatal("prefix was not applied as batches of 7,7,7,7,7,5")
		}
	})
	t.Run("filter", func(t *testing.T) {
		keep := func(a sim.Action) bool { return a.ID%3 != 0 }
		cfg := sim.Config{K: 4, WindowSize: 40, Slide: 5, BatchSize: 7, Filter: keep}
		tr, err := sim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.ProcessAll(actions); err != nil {
			t.Fatal(err)
		}
		var accepted []sim.Action
		for _, a := range actions {
			if keep(a) {
				accepted = append(accepted, a)
			}
		}
		ref, err := sim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var sevens []int
		for i := 0; i < len(accepted)/7; i++ {
			sevens = append(sevens, 7)
		}
		feedBatches(t, ref, accepted, sevens...)
		if got, want := tr.Processed(), int64(len(accepted)); got != want {
			t.Fatalf("Processed = %d, want %d accepted", got, want)
		}
		if !reflect.DeepEqual(tr.Snapshot(), ref.Snapshot()) {
			t.Fatal("batches were not cut every 7 accepted actions")
		}
	})
}

// TestBatchedClose: nothing waits for Close. One call of 3000 actions at
// BatchSize 64 ends on a batch of 56, applied when the call returns; Close
// has nothing left to do and reports no error.
func TestBatchedClose(t *testing.T) {
	tr, err := sim.New(sim.Config{K: 6, WindowSize: 1000, Slide: 50, BatchSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.ProcessAll(rmatStream(t)[:3000]); err != nil {
		t.Fatal(err)
	}
	before := savedState(t, tr)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if got := tr.Internal().Processed(); got != 3000 {
		t.Fatalf("framework processed %d actions, want 3000", got)
	}
	if !bytes.Equal(before, savedState(t, tr)) {
		t.Fatal("Close changed the tracker's state")
	}
	if tr.Value() <= 0 {
		t.Fatal("batched tracker made no progress")
	}
}

package sim_test

import (
	"reflect"
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

// TestBatchedIngestion checks the batched path end to end: queries flush
// (exactness for everything Processed), window position tracks the serial
// run, and a fixed configuration is deterministic across runs.
func TestBatchedIngestion(t *testing.T) {
	actions := rmatStream(t)
	mk := func(batch int) *sim.Tracker {
		tr, err := sim.New(sim.Config{K: 8, WindowSize: 1500, Slide: 100, Beta: 0.1, BatchSize: batch})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	serial, b1, b2 := mk(1), mk(100), mk(100)
	for _, a := range actions {
		for _, tr := range []*sim.Tracker{serial, b1, b2} {
			if err := tr.Process(a); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Queries flush: mid-batch state must still answer for every action.
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

// TestBatchedErrorsSurfaceAtProcess: validation happens on entry, so a bad
// action fails its own Process call even when buffered.
func TestBatchedErrorsSurfaceAtProcess(t *testing.T) {
	tr, err := sim.New(sim.Config{K: 2, WindowSize: 100, BatchSize: 50})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Process(sim.Action{ID: 10, User: 1, Parent: sim.NoParent}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Process(sim.Action{ID: 10, User: 2, Parent: sim.NoParent}); err == nil {
		t.Fatal("duplicate ID accepted into batch buffer")
	}
	if err := tr.Process(sim.Action{ID: 11, User: 2, Parent: 12}); err == nil {
		t.Fatal("future parent accepted into batch buffer")
	}
	if err := tr.Process(sim.Action{ID: 12, User: 2, Parent: 10}); err != nil {
		t.Fatal(err)
	}
	if got := tr.Processed(); got != 2 {
		t.Fatalf("Processed = %d, want 2", got)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBatchedClose: Close applies a partly filled batch (3000 actions at
// BatchSize 64 leave 56 buffered) and reports no error.
func TestBatchedClose(t *testing.T) {
	tr, err := sim.New(sim.Config{K: 6, WindowSize: 1000, Slide: 50, BatchSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range rmatStream(t)[:3000] {
		if err := tr.Process(a); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if got := tr.Internal().Processed(); got != 3000 {
		t.Fatalf("framework processed %d actions after Close, want 3000", got)
	}
	if tr.Value() <= 0 {
		t.Fatal("batched tracker made no progress")
	}
}

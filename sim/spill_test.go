package sim_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/sim"
)

// spillBudget is tight enough (256 log entries) that every identity dataset
// spills many times over a 700-action window, exercising spill, fault-in
// and re-spill continuously.
const spillBudget = 4096

// TestSpillIdentity is the tentpole invariant of the tiered window state:
// for every dataset shape, both frameworks and both window modes, a tracker
// running under a tight memory budget (spilling and faulting cold segments
// throughout) produces identical Seeds(), Value() and CheckpointStarts()
// to an unbudgeted tracker at every slide boundary. Run under -race in CI.
//
// The batch=7 cells feed each slide through ProcessAll at BatchSize 7: which
// checkpoints an element reaches depends on the time of the performer's
// previous contribution (stream.Delta.Prev), and that time must read the same
// whether a hot log or a cold extent held the entry, on the batch path too.
func TestSpillIdentity(t *testing.T) {
	const (
		window = 700
		slide  = 50
		k      = 6
	)
	for _, ds := range identityDatasets() {
		for _, fw := range []sim.Framework{sim.SIC, sim.IC} {
			for _, byTime := range []bool{false, true} {
				for _, batch := range []int{1, 7} {
					name := fmt.Sprintf("%s/%v/byTime=%v", ds.name, fw, byTime)
					if batch > 1 {
						name += fmt.Sprintf("/batch=%d", batch)
					}
					t.Run(name, func(t *testing.T) {
						base := sim.Config{
							K: k, WindowSize: window, Slide: slide, Beta: 0.1,
							Framework: fw, TimeBased: byTime, BatchSize: batch,
						}
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

						for lo := 0; lo < len(ds.actions); lo += slide {
							hi := min(lo+slide, len(ds.actions))
							if err := ref.ProcessAll(ds.actions[lo:hi]); err != nil {
								t.Fatal(err)
							}
							if err := tr.ProcessAll(ds.actions[lo:hi]); err != nil {
								t.Fatal(err)
							}
							if v, rv := tr.Value(), ref.Value(); v != rv {
								t.Fatalf("action %d: budgeted value %v != unbudgeted %v", hi, v, rv)
							}
							if s, rs := tr.Seeds(), ref.Seeds(); !reflect.DeepEqual(s, rs) {
								t.Fatalf("action %d: budgeted seeds %v != unbudgeted %v", hi, s, rs)
							}
							if c, rc := tr.CheckpointStarts(), ref.CheckpointStarts(); !reflect.DeepEqual(c, rc) {
								t.Fatalf("action %d: budgeted checkpoints %v != unbudgeted %v", hi, c, rc)
							}
						}
						snap := tr.Snapshot()
						if snap.Spills == 0 {
							t.Fatalf("budget %d never spilled (hot=%d): the test exercised nothing", spillBudget, snap.HotLogBytes)
						}
						refSnap := ref.Snapshot()
						if refSnap.Spills != 0 || refSnap.ColdSegments != 0 {
							t.Fatalf("unbudgeted tracker touched the cold tier: %+v", refSnap)
						}
						if snap.ElementsFed != refSnap.ElementsFed || snap.ElementsUnchanged != refSnap.ElementsUnchanged {
							t.Fatalf("budgeted fed %d elements and skipped %d unchanged, unbudgeted %d and %d",
								snap.ElementsFed, snap.ElementsUnchanged, refSnap.ElementsFed, refSnap.ElementsUnchanged)
						}
					})
				}
			}
		}
	}
}

// TestSpillSnapshotRoundTrip proves the segment-mapped recovery contract:
// a mid-stream SaveTo taken while cold extents are live references segments
// by ID (no rehydration), and a tracker Loaded from it — re-adopting those
// segment files — continues the stream with answers identical to the
// uninterrupted original at every slide boundary.
func TestSpillSnapshotRoundTrip(t *testing.T) {
	const (
		window = 700
		slide  = 50
		k      = 6
		cut    = 1300
	)
	ds := identityDatasets()[2] // SYN-O
	dir := t.TempDir()
	cfg := sim.Config{
		K: k, WindowSize: window, Slide: slide, Beta: 0.1,
		SpillDir: filepath.Join(dir, "a"), MemoryBudgetBytes: spillBudget,
	}
	tr, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.ProcessAll(ds.actions[:cut]); err != nil {
		t.Fatal(err)
	}
	if snap := tr.Snapshot(); snap.ColdUsers == 0 {
		t.Fatalf("no cold extents at the cut; snapshot would not exercise the segment manifest (%+v)", snap)
	}

	var buf bytes.Buffer
	if err := tr.SaveTo(&buf); err != nil {
		t.Fatal(err)
	}

	// Drive the original to the end, recording every boundary answer.
	type answer struct {
		value  float64
		seeds  []sim.UserID
		starts []sim.ActionID
	}
	var want []answer
	for i, a := range ds.actions[cut:] {
		if err := tr.Process(a); err != nil {
			t.Fatal(err)
		}
		if (cut+i+1)%slide == 0 {
			want = append(want, answer{
				value:  tr.Value(),
				seeds:  append([]sim.UserID(nil), tr.Seeds()...),
				starts: tr.CheckpointStarts(),
			})
		}
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	// The restored tracker shares the segment files but uses its own spill
	// directory config — same path, fresh store — exactly like a reboot.
	restored, err := sim.Load(bytes.NewReader(buf.Bytes()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if got := restored.Snapshot(); got.ColdUsers == 0 {
		t.Fatalf("restored tracker has no cold extents; recovery rehydrated instead of mapping (%+v)", got)
	}
	wi := 0
	for i, a := range ds.actions[cut:] {
		if err := restored.Process(a); err != nil {
			t.Fatal(err)
		}
		if (cut+i+1)%slide != 0 {
			continue
		}
		w := want[wi]
		wi++
		if v := restored.Value(); v != w.value {
			t.Fatalf("boundary %d: restored value %v != original %v", wi, v, w.value)
		}
		if s := restored.Seeds(); !reflect.DeepEqual(s, w.seeds) {
			t.Fatalf("boundary %d: restored seeds %v != original %v", wi, s, w.seeds)
		}
		if c := restored.CheckpointStarts(); !reflect.DeepEqual(c, w.starts) {
			t.Fatalf("boundary %d: restored checkpoints %v != original %v", wi, c, w.starts)
		}
	}
}

// TestFailedLoadClosesSegmentStore: New opens the segment store before Load
// reads a byte of the snapshot, so a snapshot that fails to load must not
// leave the store's descriptors behind. Linux only: the descriptors are
// observed in /proc/self/fd.
func TestFailedLoadClosesSegmentStore(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("needs /proc/self/fd")
	}
	ds := identityDatasets()[2] // SYN-O
	dir := t.TempDir()
	cfg := sim.Config{
		K: 6, WindowSize: 700, Slide: 50, Beta: 0.1,
		SpillDir: dir, MemoryBudgetBytes: spillBudget,
	}
	tr, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.ProcessAll(ds.actions[:1300]); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.SaveTo(&buf); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	held := func() bool {
		fds, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Fatal(err)
		}
		for _, fd := range fds {
			// A descriptor closed since ReadDir fails Readlink: not held.
			if target, _ := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); strings.HasPrefix(target, filepath.Join(dir, "seg-")) {
				return true
			}
		}
		return false
	}

	// The probe sees what it should: a loaded tracker that has read cold
	// extents holds descriptors until it is closed.
	ok, err := sim.Load(bytes.NewReader(buf.Bytes()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ok.ProcessAll(ds.actions[1300:1400]); err != nil {
		t.Fatal(err)
	}
	if !held() {
		t.Fatal("no segment held open by a loaded tracker that read cold; the test would observe nothing")
	}
	if err := ok.Close(); err != nil {
		t.Fatal(err)
	}
	if held() {
		t.Fatal("segments still held open after Close")
	}

	if _, err := sim.Load(bytes.NewReader(buf.Bytes()[:buf.Len()/2]), cfg); err == nil {
		t.Fatal("truncated snapshot loaded")
	}
	if held() {
		t.Fatal("failed Load left the segment store open: segments still held")
	}
}

// TestBudgetRequiresSpillDir pins the configuration guard.
func TestBudgetRequiresSpillDir(t *testing.T) {
	_, err := sim.New(sim.Config{K: 3, WindowSize: 100, MemoryBudgetBytes: 1 << 20})
	if err == nil {
		t.Fatal("MemoryBudgetBytes without SpillDir was accepted")
	}
}

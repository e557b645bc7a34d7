package sim_test

import (
	"runtime"
	"testing"
)

// TestTrackerLiveHeap is the footprint guard of the engine's live state:
// the bulk-shaped tracker after its five windows keeps under 2.4 MB of heap
// reachable. The tracker measures 2.08 MB, with the sieve grids' gain-bound
// rows at 1 byte a bound on a cardinality objective (0.27 MB of it), the
// stream's action ring a circular buffer grown by a quarter when full, and
// its pinned ancestors an ID-ordered list. It measured 2.71 MB with 2-byte
// rows, a ring doubled by append and compacted by copying, and pinned
// ancestors in a map; 3.9 MB with 4-byte rows and per-user maps presized
// for 8 000 users; and 4.9 MB with 8-byte rows. This is what the tracker
// keeps, not what it allocates on the way: allocations and bytes per action
// are columns of TestWorkLedger (ledger_test.go), which also holds their
// ceilings.
func TestTrackerLiveHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	const ceiling = 2.4e6
	actions := bulkShapeStream()
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	tr := fedTracker(t, bulkShapeConfig(1), actions, 2000)
	runtime.GC()
	runtime.ReadMemStats(&m1)
	runtime.KeepAlive(tr)
	runtime.KeepAlive(actions)
	live := float64(m1.HeapAlloc) - float64(m0.HeapAlloc)
	t.Logf("%.2f MB live", live/1e6)
	if live > ceiling {
		t.Fatalf("tracker keeps %.2f MB live, ceiling %.1f MB", live/1e6, ceiling/1e6)
	}
}

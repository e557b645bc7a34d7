package sim_test

import (
	"runtime"
	"testing"
)

// TestTrackerLiveHeap is the footprint guard of the engine's live state:
// the bulk-shaped tracker after its five windows keeps under 3.2 MB of heap
// reachable. The tracker measures 2.75 MB, with the sieve grids' gain-bound
// rows at 2 bytes a bound on a cardinality objective (0.55 MB of it) and
// the stream index's per-user maps grown to the users the window holds; it
// measured 3.9 MB with 4-byte rows and maps presized for 8 000 users, and
// 4.9 MB with 8-byte rows. This is what the tracker keeps, not what it
// allocates on the way: allocations and bytes per action are columns of
// TestWorkLedger (ledger_test.go), which also holds their ceilings.
func TestTrackerLiveHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	const ceiling = 3.2e6
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

package sim_test

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/sim"
)

// TestIngestAllocCeiling is the allocation guard of the ingest hot path:
// simbench's smoke-scale tput stream (SYN-O, 8000 actions) through the three
// configurations that experiment prints, a slide per ProcessAll call, must
// stay under 2.5 heap allocations per action — mostly window fill. The
// engine measures 1.83 (SIC), 1.80 (IC) and 1.85 (SIC, BatchSize = slide),
// so one allocation added per action fails it. The count is deterministic:
// no baseline file, no tolerance to tune.
func TestIngestAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	const ceiling = 2.5
	const slide = 50
	actions := gen.Stream(gen.SynO(2000, 8000, 2000, 1))
	for _, c := range []struct {
		fw    sim.Framework
		batch int
	}{{sim.SIC, 1}, {sim.IC, 1}, {sim.SIC, slide}} {
		t.Run(fmt.Sprintf("%v-b%d", c.fw, c.batch), func(t *testing.T) {
			tr, err := sim.New(sim.Config{
				K: 10, WindowSize: 2000, Slide: slide, Framework: c.fw, BatchSize: c.batch,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			runtime.GC()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for off := 0; off < len(actions); off += slide {
				if err := tr.ProcessAll(actions[off : off+slide]); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&m1)
			per := float64(m1.Mallocs-m0.Mallocs) / float64(len(actions))
			t.Logf("%.2f allocs/action", per)
			if per > ceiling {
				t.Fatalf("%.2f allocs/action, ceiling %.1f", per, ceiling)
			}
		})
	}
}

// TestTrackerLiveHeap is the footprint guard of the engine's live state:
// the bulk-shaped tracker after its five windows keeps under 4.5 MB of heap
// reachable. 1.09 MB of it is the sieve grids' gain-bound rows, 4 bytes a
// bound on a cardinality objective; the tracker measures 3.9 MB so, and
// 4.9 MB with 8-byte rows.
func TestTrackerLiveHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	const ceiling = 4.5e6
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

// TestIngestBytesCeiling bounds what BenchmarkIngestBulkShape/batch=1
// allocates: past the warm-up window, the bulk-shaped stream at batch 1 in
// its 2000-action requests allocates under 1 400 bytes per action. About
// half of it is the gain-bound rows of checkpoints born and dead within the
// run: the engine measures 1 198 with 4-byte bounds and 1 757 with 8-byte
// ones.
func TestIngestBytesCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	const ceiling = 1400
	const window, request = 8000, 2000
	actions := bulkShapeStream()
	tr := fedTracker(t, bulkShapeConfig(1), actions[:window], request)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for off := window; off < len(actions); off += request {
		if err := tr.ProcessAll(actions[off : off+request]); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&m1)
	per := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(len(actions)-window)
	t.Logf("%.0f B/action", per)
	if per > ceiling {
		t.Fatalf("%.0f B/action, ceiling %d", per, ceiling)
	}
}

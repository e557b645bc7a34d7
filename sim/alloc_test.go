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
// stay under 3.5 heap allocations per action — mostly window fill. The
// engine measures 2.84 (SIC), 2.80 (IC) and 2.86 (SIC, BatchSize = slide),
// so one allocation added per action fails it. The count is deterministic:
// no baseline file, no tolerance to tune.
func TestIngestAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	const ceiling = 3.5
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

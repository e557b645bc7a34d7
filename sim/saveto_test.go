package sim_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"runtime"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/sim"
)

// TestSaveToBytesPinned pins the SHA-256 of SaveTo for three trackers that
// between them reach every payload writer: the bulk-shaped SIC tracker over
// SieveStreaming, an IC tracker over ThresholdStream with weights, and a
// time-based SIC tracker over the BlogWatch swap oracle. The sums were
// computed at 56d60cb, whose SaveTo built every section in memory before
// writing it: streaming the sections must not move a byte.
func TestSaveToBytesPinned(t *testing.T) {
	weights := sim.WeightTable{W: map[sim.UserID]float64{}, Default: 1}
	for u := sim.UserID(0); u < 600; u += 3 {
		weights.W[u] = 0.25 + float64(u%7)/4
	}
	for _, c := range []struct {
		name string
		tr   func(t *testing.T) *sim.Tracker
		sum  string
	}{
		{"bulk-sic-sieve", func(t *testing.T) *sim.Tracker { return bulkShapeTracker(t) },
			"6fb882dc77dbba33ab86576347ef43105b961b05bad195e3bcd9c295ee2a8ecb"},
		{"weighted-ic-threshold", func(t *testing.T) *sim.Tracker {
			return fedTracker(t, sim.Config{
				K: 8, WindowSize: 1500, Slide: 100, Beta: 0.2, Framework: sim.IC,
				Oracle: sim.ThresholdStream, Weights: weights,
			}, gen.Stream(gen.SynO(600, 5000, 1500, 7)), 100)
		}, "124544728a05a8e9a4e37a66a15988488fe294433d25479ccb95ae5e5d21f280"},
		{"timebased-sic-blogwatch", func(t *testing.T) *sim.Tracker {
			return fedTracker(t, sim.Config{
				K: 6, WindowSize: 900, Slide: 60, Beta: 0.1, Framework: sim.SIC,
				Oracle: sim.BlogWatch, TimeBased: true,
			}, gen.Stream(gen.RedditLike(500, 3000, 900, 3)), 60)
		}, "aa539076bc44c6e1a66ab64694539e69c228d777474b7c754273f51bcfe093f3"},
	} {
		t.Run(c.name, func(t *testing.T) {
			h := sha256.New()
			if err := c.tr(t).SaveTo(h); err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != c.sum {
				t.Errorf("SaveTo SHA-256 = %s, want %s", got, c.sum)
			}
		})
	}
}

// TestSaveToConcurrent saves trackers on several goroutines at once, as a
// server's trackers do: the writers share pooled scratch, and every image
// must still equal the one a lone SaveTo writes.
func TestSaveToConcurrent(t *testing.T) {
	cfg := sim.Config{K: 5, WindowSize: 700, Slide: 50, Beta: 0.1}
	actions := gen.Stream(gen.TwitterLike(400, 2000, 700, 5))
	var want bytes.Buffer
	if err := fedTracker(t, cfg, actions, cfg.Slide).SaveTo(&want); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for range 4 {
		tr := fedTracker(t, cfg, actions, cfg.Slide)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 5 {
				var got bytes.Buffer
				if err := tr.SaveTo(&got); err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Error("a concurrent SaveTo wrote different bytes")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestSaveToAllocBound is the snapshot writer's memory bound: SaveTo on the
// bulk-shaped tracker allocates at most half the bytes it writes with warm
// scratch pools, and at most 0.6 times with cold ones. Sections stream
// through the container's file buffer, so what it allocates is that buffer
// and per-payload scratch; a writer that assembled the core section in
// memory allocated 4.4 times what it wrote.
//
// The server snapshots with cold pools: collections run every few tens of
// milliseconds under load, snapshots come hundreds apart, and two
// collections empty a sync.Pool. There the scratch is allocated afresh, and
// a stream payload built in a pooled buffer only to learn its length
// allocated 1.02 times what SaveTo wrote.
func TestSaveToAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	tr := bulkShapeTracker(t)
	var written countingWriter
	if err := tr.SaveTo(&written); err != nil { // warm the scratch pools
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		cold  bool
		bound float64
	}{{"warm", false, 0.5}, {"cold", true, 0.6}} {
		// The least of a few runs: a collection between them may empty a
		// warm pool.
		least := ^uint64(0)
		for range 3 {
			if c.cold {
				runtime.GC()
				runtime.GC()
			}
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			if err := tr.SaveTo(io.Discard); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&m1)
			least = min(least, m1.TotalAlloc-m0.TotalAlloc)
		}
		t.Logf("%s pools: SaveTo writes %d bytes and allocates %d (%.2f×)", c.name, written, least, float64(least)/float64(written))
		if float64(least) > c.bound*float64(written) {
			t.Errorf("%s pools: SaveTo allocates %d bytes to write %d: more than %.1f×", c.name, least, written, c.bound)
		}
	}
}

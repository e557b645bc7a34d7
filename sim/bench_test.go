package sim_test

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/sim"
)

// BenchmarkIngestBulkShape is bulkShapeConfig in process: a window of
// warm-up, then four windows through ProcessAll in the workload's
// 2000-action requests. ns/op over actions/op is the µs per action that
// predicts `bulk`'s ack time, readable without booting a server. batch=1 is
// the served configuration; batch=2000 sets BatchSize to the request size,
// so the two price batching in cost and, through the final value each
// reports, in quality. live-MB is the heap the tracker keeps reachable at
// the end, collected before it was built and after its last request
// (TestTrackerLiveHeap bounds it).
func BenchmarkIngestBulkShape(b *testing.B) {
	const window, request = 8000, 2000
	actions := bulkShapeStream()
	for _, batch := range []int{1, request} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			b.ReportAllocs()
			var value, live float64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				var m0, m1 runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&m0)
				tr, err := sim.New(bulkShapeConfig(batch))
				if err != nil {
					b.Fatal(err)
				}
				if err := tr.ProcessAll(actions[:window]); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				for off := window; off < len(actions); off += request {
					if err := tr.ProcessAll(actions[off : off+request]); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				runtime.GC()
				runtime.ReadMemStats(&m1)
				live = float64(m1.HeapAlloc) - float64(m0.HeapAlloc)
				if value = tr.Value(); value <= 0 {
					b.Fatal("tracker made no progress")
				}
				tr.Close()
				b.StartTimer()
			}
			b.ReportMetric(float64(len(actions)-window), "actions/op")
			b.ReportMetric(value, "value")
			b.ReportMetric(live/1e6, "live-MB")
		})
	}
}

// BenchmarkSaveTo is one snapshot of BenchmarkIngestBulkShape's batch=1
// tracker after its five windows — what `bulk` writes every 128 KiB of WAL —
// into a writer that discards it. bytes/op is the snapshot's size; B/op
// against it is what writing it costs in memory (TestSaveToAllocBound).
func BenchmarkSaveTo(b *testing.B) {
	tr := bulkShapeTracker(b)
	var written countingWriter
	b.ReportAllocs()
	for b.Loop() {
		written = 0
		if err := tr.SaveTo(&written); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(written), "bytes/op")
}

// BenchmarkSnapshotTrickleShape prices a publish in process: each op is one
// of `trickle`'s 4-action requests through ProcessAll on the bulk-shaped
// tracker, then the Snapshot the server publishes after it. ns/op and
// allocs/op are what the candidate view costs a request beside the ingest
// it follows. A sixth window feeds the ops; when it runs out, a fresh
// tracker is fed the first five, off the clock.
func BenchmarkSnapshotTrickleShape(b *testing.B) {
	const window, request = 8000, 4
	actions := gen.Stream(gen.TwitterLike(8000, 6*window, window, 1))
	var tr *sim.Tracker
	off := len(actions)
	b.ReportAllocs()
	// Not b.Loop: it measures its time budget from the last StartTimer,
	// so the refills below would keep it from ever ending.
	for i := 0; i < b.N; i++ {
		if off+request > len(actions) {
			b.StopTimer()
			if tr != nil {
				tr.Close()
			}
			var err error
			if tr, err = sim.New(bulkShapeConfig(1)); err != nil {
				b.Fatal(err)
			}
			for off = 0; off < 5*window; off += 2000 {
				if err := tr.ProcessAll(actions[off : off+2000]); err != nil {
					b.Fatal(err)
				}
			}
			b.StartTimer()
		}
		if err := tr.ProcessAll(actions[off : off+request]); err != nil {
			b.Fatal(err)
		}
		if snap := tr.Snapshot(); len(snap.Candidates) == 0 {
			b.Fatal("empty candidate pool")
		}
		off += request
	}
	tr.Close()
}

// bulkShapeConfig is the engine as the benchmark's `bulk` workload
// configures it (benchmark/workloads.go: SIC + SieveStreaming, k 50, N 8000,
// L 50, β 0.1, TwitterLike over 8000 users, seed 1), and bulkShapeStream its
// stream: five windows.
func bulkShapeConfig(batch int) sim.Config {
	return sim.Config{
		K: 50, WindowSize: 8000, Slide: 50, Beta: 0.1, Framework: sim.SIC,
		Oracle: sim.SieveStreaming, BatchSize: batch, ExpectedUsers: 8000,
	}
}

func bulkShapeStream() []sim.Action {
	const window = 8000
	return gen.Stream(gen.TwitterLike(8000, 5*window, window, 1))
}

// bulkShapeTracker is BenchmarkIngestBulkShape's batch=1 tracker after its
// five windows, fed in the workload's 2000-action requests: the state a
// `bulk` run snapshots.
func bulkShapeTracker(tb testing.TB) *sim.Tracker {
	return fedTracker(tb, bulkShapeConfig(1), bulkShapeStream(), 2000)
}

// fedTracker is a tracker built from cfg that has processed actions, chunk
// actions per ProcessAll call.
func fedTracker(tb testing.TB, cfg sim.Config, actions []sim.Action, chunk int) *sim.Tracker {
	tb.Helper()
	tr, err := sim.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { tr.Close() })
	for off := 0; off < len(actions); off += chunk {
		if err := tr.ProcessAll(actions[off:min(off+chunk, len(actions))]); err != nil {
			tb.Fatal(err)
		}
	}
	return tr
}

// countingWriter counts the bytes written to it.
type countingWriter int

func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}

package sim_test

import (
	"testing"

	"repro/internal/gen"
	"repro/sim"
)

// benchIngest measures the streaming ingestion hot path end to end: one
// full pass of an RMAT-generated SYN-O stream through a Tracker. Allocations
// are reported per processed action, which makes `go test -bench=Ingest
// -benchmem ./sim` the regression gate for the zero-allocation element path.
func benchIngest(b *testing.B, fw sim.Framework) {
	b.Helper()
	actions := gen.Stream(gen.SynO(800, 6000, 1500, 42))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tr, err := sim.New(sim.Config{
			K: 8, WindowSize: 1500, Slide: 100, Beta: 0.1, Framework: fw,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for _, a := range actions {
			if err := tr.Process(a); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if tr.Value() <= 0 {
			b.Fatal("tracker made no progress")
		}
		tr.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(len(actions)), "actions/op")
}

// BenchmarkIngestSIC is the paper's headline configuration.
func BenchmarkIngestSIC(b *testing.B) { benchIngest(b, sim.SIC) }

// BenchmarkIngestIC is the dense-checkpoint variant.
func BenchmarkIngestIC(b *testing.B) { benchIngest(b, sim.IC) }

// BenchmarkIngestBulkShape is the engine as the benchmark's `bulk` workload
// configures it (benchmark/workloads.go: SIC + SieveStreaming, k 50, N 8000,
// L 50, β 0.1, TwitterLike over 8000 users, seed 1), in process: a window of
// warm-up, then four windows through ProcessAll in the workload's
// 2000-action requests. ns/op over actions/op is the µs per action that
// predicts `bulk`'s ack time, readable without booting a server.
func BenchmarkIngestBulkShape(b *testing.B) {
	const window, request = 8000, 2000
	actions := gen.Stream(gen.TwitterLike(8000, 5*window, window, 1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tr, err := sim.New(sim.Config{
			K: 50, WindowSize: window, Slide: 50, Beta: 0.1, Framework: sim.SIC,
			Oracle: sim.SieveStreaming, BatchSize: 1, ExpectedUsers: 8000,
		})
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
		if tr.Value() <= 0 {
			b.Fatal("tracker made no progress")
		}
		tr.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(len(actions)-window), "actions/op")
}

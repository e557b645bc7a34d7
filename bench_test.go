package repro

// One testing.B benchmark per table and figure of the paper's evaluation
// (§6). Each benchmark regenerates its artefact through the same harness
// code that cmd/simbench runs at full scale; here the smoke scale keeps
// `go test -bench=.` tractable. b.ReportMetric exposes the headline series
// value so benchmark runs double as regression tracking for the reproduced
// shapes.

import (
	"io"
	"testing"

	"repro/internal/bench"
)

func runExperiment(b *testing.B, id string) {
	b.Helper()
	sc := bench.ScaleSmoke()
	sc.MCRounds = 30
	sc.Samples = 1
	for i := 0; i < b.N; i++ {
		if err := bench.Run(id, sc, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3Stats regenerates Table 3 (dataset statistics).
func BenchmarkTable3Stats(b *testing.B) { runExperiment(b, "table3") }

// BenchmarkTable2Oracles regenerates Table 2 (checkpoint oracle comparison).
func BenchmarkTable2Oracles(b *testing.B) { runExperiment(b, "table2") }

// BenchmarkFig5InfluenceValue regenerates Fig 5 (influence value vs beta).
func BenchmarkFig5InfluenceValue(b *testing.B) { runExperiment(b, "fig5") }

// BenchmarkFig6Checkpoints regenerates Fig 6 (checkpoint counts vs beta).
func BenchmarkFig6Checkpoints(b *testing.B) { runExperiment(b, "fig6") }

// BenchmarkFig7ThroughputBeta regenerates Fig 7 (throughput vs beta).
func BenchmarkFig7ThroughputBeta(b *testing.B) { runExperiment(b, "fig7") }

// BenchmarkFig8Quality regenerates Fig 8 (influence spread vs k).
func BenchmarkFig8Quality(b *testing.B) { runExperiment(b, "fig8") }

// BenchmarkFig9ThroughputK regenerates Fig 9 (throughput vs k).
func BenchmarkFig9ThroughputK(b *testing.B) { runExperiment(b, "fig9") }

// BenchmarkFig10ThroughputN regenerates Fig 10 (throughput vs window size).
func BenchmarkFig10ThroughputN(b *testing.B) { runExperiment(b, "fig10") }

// BenchmarkFig11ThroughputL regenerates Fig 11 (throughput vs slide length).
func BenchmarkFig11ThroughputL(b *testing.B) { runExperiment(b, "fig11") }

// BenchmarkFig12ThroughputU regenerates Fig 12 (throughput vs user count).
func BenchmarkFig12ThroughputU(b *testing.B) { runExperiment(b, "fig12") }

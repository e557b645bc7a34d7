// Command simbench regenerates every table and figure of the paper's
// evaluation section at laptop scale.
//
// Usage:
//
//	simbench                       # run everything at the default scale
//	simbench -exp fig5,fig7        # run selected experiments
//	simbench -scale smoke          # fast pass (seconds, coarser numbers)
//	simbench -batch 100 -exp fig7  # batched ingestion for any run
//
// Experiment IDs: table2 table3 fig2-4 fig5 fig6 fig7 fig8 fig9 fig10 fig11
// fig12, the ablations abl-fastpath abl-greedy abl-oracle, and mem (resident
// bytes under a memory budget), an extension beyond the paper. The streaming
// runs feed the tracker one slide per ProcessAll call; -batch groups actions
// within each call (sim.Config.BatchSize). The figures' shapes are checked
// by internal/bench's TestPaperClaims, and RESULTS.md holds a default-scale
// run. Per-action numbers live elsewhere: the engine's work, allocations and
// bytes per action in sim's TestWorkLedger (sim/testdata/ledger.golden), the
// in-process time in sim's BenchmarkIngestBulkShape, and the end-to-end cost
// in benchmark/ (BENCHMARK.json).
// See ARCHITECTURE.md "Paper section → package map" for what each ID
// exercises and README "Reproducing the paper's evaluation" for the IDs.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	var (
		exps  = flag.String("exp", "all", "comma-separated experiment IDs, or 'all'")
		scale = flag.String("scale", "default", "base scale: 'default' or 'smoke'")
		batch = flag.Int("batch", 0, "ingestion batch size within each slide-sized ProcessAll call of the streaming runs (1 = per-action)")
		list  = flag.Bool("list", false, "list experiment IDs and exit")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}

	var sc bench.Scale
	switch *scale {
	case "default":
		sc = bench.ScaleDefault()
	case "smoke":
		sc = bench.ScaleSmoke()
	default:
		fmt.Fprintf(os.Stderr, "simbench: unknown scale %q\n", *scale)
		os.Exit(2)
	}
	if *batch > 0 {
		sc.BatchSize = *batch
	}

	var ids []string
	if *exps == "all" {
		for _, e := range bench.Experiments() {
			ids = append(ids, e.ID)
		}
	} else {
		ids = strings.Split(*exps, ",")
		for i := range ids {
			ids[i] = strings.TrimSpace(ids[i])
		}
	}

	for _, id := range ids {
		start := time.Now()
		if err := bench.Run(id, sc, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "simbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("[%s finished in %v]\n\n", id, time.Since(start).Round(time.Millisecond))
	}
}

// Command simbench regenerates every table and figure of the paper's
// evaluation section at laptop scale.
//
// Usage:
//
//	simbench                       # run everything at the default scale
//	simbench -exp fig5,fig7        # run selected experiments
//	simbench -scale smoke          # fast pass (seconds, coarser numbers)
//	simbench -window 20000 -k 50   # override individual sizes
//	simbench -batch 100 -exp fig7  # batched ingestion for any run
//
// Experiment IDs: table2 table3 fig2-4 fig5 fig6 fig7 fig8 fig9 fig10 fig11
// fig12, the ablations abl-fastpath abl-greedy abl-oracle, and tput (hot-path
// ns/allocs/B per action) and mem (resident bytes under a memory budget),
// extensions beyond the paper. The streaming runs feed the tracker one slide
// per ProcessAll call; -batch groups actions within each call
// (sim.Config.BatchSize). The figures' shapes are checked by
// internal/bench's TestPaperClaims, and RESULTS.md holds a default-scale run.
// Performance is gated elsewhere: end to end by benchmark/ (BENCHMARK.json),
// allocations per action by sim's TestIngestAllocCeiling.
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
		exps    = flag.String("exp", "all", "comma-separated experiment IDs, or 'all'")
		scale   = flag.String("scale", "default", "base scale: 'default' or 'smoke'")
		users   = flag.Int("users", 0, "override user count |U|")
		stream  = flag.Int("stream", 0, "override stream length")
		window  = flag.Int("window", 0, "override window size N")
		slide   = flag.Int("slide", 0, "override slide length L")
		k       = flag.Int("k", 0, "override seed budget k")
		beta    = flag.Float64("beta", 0, "override default beta")
		mc      = flag.Int("mc", 0, "override Monte-Carlo rounds")
		samples = flag.Int("samples", 0, "override quality sample count")
		seed    = flag.Int64("seed", 0, "override random seed")
		batch   = flag.Int("batch", 0, "ingestion batch size within each slide-sized ProcessAll call of the streaming runs (1 = per-action)")
		list    = flag.Bool("list", false, "list experiment IDs and exit")
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
	if *users > 0 {
		sc.Users = *users
	}
	if *stream > 0 {
		sc.StreamLen = *stream
	}
	if *window > 0 {
		sc.Window = *window
	}
	if *slide > 0 {
		sc.Slide = *slide
	}
	if *k > 0 {
		sc.K = *k
	}
	if *beta > 0 {
		sc.Beta = *beta
	}
	if *mc > 0 {
		sc.MCRounds = *mc
	}
	if *samples > 0 {
		sc.Samples = *samples
	}
	if *seed != 0 {
		sc.Seed = *seed
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

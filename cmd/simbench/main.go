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
//	simbench -exp tput -json BENCH.json   # machine-readable snapshot
//
// Experiment IDs: table2 table3 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12
// tput (hot-path ns/allocs/B per action) and query (lazy relational
// operators vs the materialized reference), both extensions beyond the
// paper. -json writes every run's
// metrics as a Snapshot (see internal/bench.WriteJSON), the format committed
// as BENCH_<PR>.json to track performance across PRs.
// See DESIGN.md §5 for the mapping from each ID to the paper's artefact and
// EXPERIMENTS.md for recorded paper-vs-measured results.
package main

import (
	"flag"
	"fmt"
	"io"
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
		batch   = flag.Int("batch", 0, "ingestion batch size for streaming runs (1 = per-action)")
		jsonOut = flag.String("json", "", "write a machine-readable benchmark snapshot (ns/op, allocs/op, B/op, actions/sec per experiment) to this file")
		check   = flag.String("check", "", "compare this run against a baseline BENCH_<PR>.json and exit 1 on regression (the CI bench guard)")
		allocT  = flag.Float64("check-allocs-tol", bench.DefaultAllocTolerance, "allowed fractional allocs/op growth over the -check baseline")
		nsT     = flag.Float64("check-ns-tol", bench.DefaultNsTolerance, "allowed fractional ns/op growth over the -check baseline (loose: wall time is noisy on shared runners)")
		retries = flag.Int("check-retries", 2, "on a -check regression, rerun the experiments up to this many times and keep each record's best (min ns/op) before the final verdict — filters one-sided scheduler noise on shared runners")
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
		// Trim in place: ids is reused verbatim by the -check retry loop.
		ids = strings.Split(*exps, ",")
		for i := range ids {
			ids[i] = strings.TrimSpace(ids[i])
		}
	}

	for _, id := range ids {
		start := time.Now()
		if err := bench.RunMeasured(id, sc, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "simbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("[%s finished in %v]\n\n", id, time.Since(start).Round(time.Millisecond))
	}

	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "simbench: %v\n", err)
			os.Exit(1)
		}
		werr := bench.WriteJSON(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintf(os.Stderr, "simbench: writing %s: %v\n", *jsonOut, werr)
			os.Exit(1)
		}
		fmt.Printf("[benchmark snapshot written to %s]\n", *jsonOut)
	}

	if *check != "" {
		base, err := bench.ReadSnapshotFile(*check)
		if err != nil {
			fmt.Fprintf(os.Stderr, "simbench: %v\n", err)
			os.Exit(1)
		}
		fresh := bench.Snapshot{Records: bench.Metrics()}
		regs, matched := bench.CompareSnapshots(base, fresh, *allocT, *nsT)
		if matched == 0 {
			fmt.Fprintf(os.Stderr, "simbench: -check matched no records against %s (wrong -exp/-scale for this baseline?)\n", *check)
			os.Exit(1)
		}
		// Wall-clock regressions on a shared 1-CPU runner are usually the
		// scheduler, not the code: rerun and keep each record's best before
		// concluding anything. Allocation regressions are deterministic and
		// survive the retries, so they still fail.
		for try := 1; len(regs) > 0 && try <= *retries; try++ {
			fmt.Printf("[bench check: %d regression(s), retry %d/%d to filter runner noise]\n", len(regs), try, *retries)
			bench.ResetMetrics()
			for _, id := range ids {
				if err := bench.RunMeasured(id, sc, io.Discard); err != nil {
					fmt.Fprintf(os.Stderr, "simbench: %v\n", err)
					os.Exit(1)
				}
			}
			fresh.Records = bench.MergeMin(fresh.Records, bench.Metrics())
			regs, _ = bench.CompareSnapshots(base, fresh, *allocT, *nsT)
		}
		if len(regs) > 0 {
			fmt.Fprintf(os.Stderr, "simbench: %d regression(s) against %s (allocs tol %.0f%%, ns tol %.0f%%):\n",
				len(regs), *check, *allocT*100, *nsT*100)
			for _, r := range regs {
				fmt.Fprintf(os.Stderr, "  %s\n", r)
			}
			os.Exit(1)
		}
		fmt.Printf("[bench check OK: %d records within tolerance of %s]\n", matched, *check)
	}
}

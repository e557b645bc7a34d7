// Command simgen generates synthetic social action streams as NDJSON, the
// one stream format: one {"id":…,"user":…,"parent":…} object per line,
// "parent" omitted for roots — what simctl ingest reads and what simserve's
// POST /actions takes.
//
// Usage:
//
//	simgen -preset twitter -users 10000 -actions 100000 > twitter.ndjson
//	simgen -preset syn-o -actions 50000 -out syn.ndjson
//
// simgen only writes streams; simctl ingest feeds one to a running simserve:
//
//	simgen -preset syn-o -actions 100000 | simctl ingest default -
//
// Presets: reddit, twitter, syn-o, syn-n (package internal/gen says how each
// relates to the paper's datasets: ARCHITECTURE.md "Paper section → package map").
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/dataio"
	"repro/internal/gen"
)

func main() {
	var (
		preset  = flag.String("preset", "twitter", "dataset preset: reddit, twitter, syn-o, syn-n")
		users   = flag.Int("users", 20000, "user universe size |U|")
		actions = flag.Int("actions", 100000, "stream length")
		window  = flag.Int("window", 10000, "window size N the stream is scaled for")
		seed    = flag.Int64("seed", 1, "random seed")
		out     = flag.String("out", "", "output path (default stdout)")
	)
	flag.Parse()

	var cfg gen.Config
	switch *preset {
	case "reddit":
		cfg = gen.RedditLike(*users, *actions, *window, *seed)
	case "twitter":
		cfg = gen.TwitterLike(*users, *actions, *window, *seed)
	case "syn-o":
		cfg = gen.SynO(*users, *actions, *window, *seed)
	case "syn-n":
		cfg = gen.SynN(*users, *actions, *window, *seed)
	default:
		fmt.Fprintf(os.Stderr, "simgen: unknown preset %q\n", *preset)
		os.Exit(2)
	}

	actionsOut := gen.Stream(cfg)

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "simgen: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	if err := dataio.WriteNDJSON(w, actionsOut); err != nil {
		fmt.Fprintf(os.Stderr, "simgen: %v\n", err)
		os.Exit(1)
	}
}

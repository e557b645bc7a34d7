// Command simgen generates synthetic social action streams in the formats
// consumed by simtrack and simserve: TSV ("id<TAB>user<TAB>parent", parent
// = -1 for roots) or NDJSON (the simserve ingest body format).
//
// Usage:
//
//	simgen -preset twitter -users 10000 -actions 100000 > twitter.tsv
//	simgen -preset syn-o -actions 50000 -format ndjson -out syn.ndjson
//
// With -post, simgen becomes a load generator: instead of writing a file it
// POSTs the stream as NDJSON chunks to a running simserve instance and
// reports the achieved ingest rate —
//
//	simserve -addr :8384 -k 10 -window 50000 &
//	simgen -preset syn-o -actions 100000 -post http://localhost:8384/v1/trackers/default/actions
//
// Presets: reddit, twitter, syn-o, syn-n (package internal/gen says how each
// relates to the paper's datasets: ARCHITECTURE.md "Paper section → package map").
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"repro/internal/dataio"
	"repro/internal/gen"
	"repro/internal/stream"
)

func main() {
	var (
		preset  = flag.String("preset", "twitter", "dataset preset: reddit, twitter, syn-o, syn-n")
		users   = flag.Int("users", 20000, "user universe size |U|")
		actions = flag.Int("actions", 100000, "stream length")
		window  = flag.Int("window", 10000, "window size N the stream is scaled for")
		seed    = flag.Int64("seed", 1, "random seed")
		format  = flag.String("format", "tsv", "output format: tsv or ndjson")
		out     = flag.String("out", "", "output path (default stdout)")
		post    = flag.String("post", "", "load-generator mode: POST the stream as NDJSON chunks to this simserve ingest URL instead of writing it")
		chunk   = flag.Int("chunk", 1000, "actions per POST in -post mode")
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

	if *post != "" {
		if err := drive(*post, actionsOut, *chunk); err != nil {
			fmt.Fprintf(os.Stderr, "simgen: %v\n", err)
			os.Exit(1)
		}
		return
	}

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
	var err error
	switch *format {
	case "tsv":
		err = dataio.WriteTSV(w, actionsOut)
	case "ndjson":
		err = dataio.WriteNDJSON(w, actionsOut)
	default:
		fmt.Fprintf(os.Stderr, "simgen: unknown format %q\n", *format)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "simgen: %v\n", err)
		os.Exit(1)
	}
}

// drive is the load-generator mode: POST the stream to a simserve ingest
// endpoint in NDJSON chunks and report the end-to-end ingest rate.
func drive(url string, actions []stream.Action, chunk int) error {
	if chunk < 1 {
		chunk = 1
	}
	client := &http.Client{Timeout: 60 * time.Second}
	start := time.Now()
	var buf bytes.Buffer
	for i := 0; i < len(actions); i += chunk {
		end := min(i+chunk, len(actions))
		buf.Reset()
		if err := dataio.WriteNDJSON(&buf, actions[i:end]); err != nil {
			return err
		}
		resp, err := client.Post(url, "application/x-ndjson", &buf)
		if err != nil {
			return fmt.Errorf("chunk at %d: %w", i, err)
		}
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("chunk at %d: status %d: %s", i, resp.StatusCode, bytes.TrimSpace(body))
		}
	}
	elapsed := time.Since(start)
	rate := float64(len(actions)) / elapsed.Seconds()
	fmt.Printf("posted %d actions in %d chunks over %v (%.0f actions/s)\n",
		len(actions), (len(actions)+chunk-1)/chunk, elapsed.Round(time.Millisecond), rate)
	return nil
}

// Command simctl is a thin operational CLI over the typed api.Client: every
// subcommand maps to one /v1 endpoint and prints the response as JSON, so
// shell pipelines (and scripts/serve_smoke.sh) exercise the exact same
// client path as embedded Go callers.
//
//	simctl -addr http://localhost:8384 health
//	simctl list
//	simctl seeds default
//	simgen -preset syn-o -actions 1000 -format ndjson | simctl ingest default -
//	echo '{"plan":{"scan":"seeds","ops":[{"op":"topk","col":"influence","k":3,"desc":true}]}}' |
//	    simctl query default -
//	simctl influence default 42
//	simctl candidates default -ranked
//
// Non-2xx responses exit 1 and print the server's error envelope (message +
// HTTP status) on stderr, so smoke scripts can assert the error contract.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/api"
	"repro/internal/dataio"
	"repro/query"
	"repro/sim"
)

const usage = `usage: simctl [-addr URL] [-names] [-router] [-timeout D] [-retries N] <command> [args]

commands:
  health                     GET /v1/healthz (cluster-shaped with -router)
  list                       GET /v1/trackers
  snapshot <tracker>         GET /v1/trackers/{name}
  seeds <tracker>            GET /v1/trackers/{name}/seeds
  value <tracker>            GET /v1/trackers/{name}/value
  checkpoints <tracker>      GET /v1/trackers/{name}/checkpoints
  stats <tracker>            GET /v1/trackers/{name}/stats
  metrics <tracker>          GET /v1/trackers/{name}/metrics (state + self-healing counters)
  influence <tracker> <user> GET /v1/trackers/{name}/influence (user: ID, or name with -names)
  candidates <tracker> [-ranked]
                             GET /v1/trackers/{name}/candidates (shard-local seed pool; -ranked:
                             what a simserve hands a router — its greedy picks with gains, no sets)
  ingest <tracker> <file>    POST NDJSON actions ("-" = stdin; string users with -names)
  query <tracker> <file>     POST a JSON plan ("-" = stdin; bare plan or {"plan":...,"limit":N})

-router points -addr at a simrouter instead of a simserve: health decodes
the cluster DTO (per-shard reachability), every other command is unchanged —
the router serves the same routes and merges across its shards.
`

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8384", "simserve base URL")
	names := flag.Bool("names", false, `name-mode tracker: ingest NDJSON "user" fields are string names`)
	router := flag.Bool("router", false, "addr is a simrouter: decode cluster-shaped health")
	timeout := flag.Duration("timeout", 0, "per-attempt request timeout (0 = client default 30s)")
	retries := flag.Int("retries", 0, "retry attempts after 429/503 (and transport errors on reads)")
	flag.Usage = func() { fmt.Fprint(os.Stderr, usage) }
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	client := api.NewClient(*addr)
	client.Timeout = *timeout
	client.Retry = api.RetryPolicy{MaxRetries: *retries}
	ctx := context.Background()

	out, err := run(ctx, client, *names, *router, args[0], args[1:])
	if err != nil {
		var apiErr *api.Error
		if errors.As(err, &apiErr) {
			fmt.Fprintf(os.Stderr, "simctl: %s\n", apiErr)
		} else {
			fmt.Fprintf(os.Stderr, "simctl: %v\n", err)
		}
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintf(os.Stderr, "simctl: %v\n", err)
		os.Exit(1)
	}
}

// run dispatches one subcommand and returns the decoded response to print.
func run(ctx context.Context, c *api.Client, names, router bool, cmd string, args []string) (any, error) {
	tracker := func() (string, error) {
		if len(args) < 1 {
			return "", fmt.Errorf("%s: missing tracker name", cmd)
		}
		return args[0], nil
	}
	switch cmd {
	case "health":
		if router {
			return c.ClusterHealth(ctx)
		}
		return c.Health(ctx)
	case "list":
		return c.List(ctx)
	case "snapshot":
		t, err := tracker()
		if err != nil {
			return nil, err
		}
		return c.Snapshot(ctx, t)
	case "seeds":
		t, err := tracker()
		if err != nil {
			return nil, err
		}
		return c.Seeds(ctx, t)
	case "value":
		t, err := tracker()
		if err != nil {
			return nil, err
		}
		return c.Value(ctx, t)
	case "checkpoints":
		t, err := tracker()
		if err != nil {
			return nil, err
		}
		return c.Checkpoints(ctx, t)
	case "stats":
		t, err := tracker()
		if err != nil {
			return nil, err
		}
		return c.Stats(ctx, t)
	case "metrics":
		t, err := tracker()
		if err != nil {
			return nil, err
		}
		return c.TrackerMetrics(ctx, t)
	case "candidates":
		t, err := tracker()
		if err != nil {
			return nil, err
		}
		if len(args) > 1 {
			if args[1] != "-ranked" {
				return nil, fmt.Errorf("candidates: unknown argument %q", args[1])
			}
			return c.CandidatesRanked(ctx, t)
		}
		return c.Candidates(ctx, t)
	case "influence":
		t, err := tracker()
		if err != nil {
			return nil, err
		}
		if len(args) < 2 {
			return nil, fmt.Errorf("influence: missing user")
		}
		return c.Influence(ctx, t, args[1])
	case "ingest":
		t, err := tracker()
		if err != nil {
			return nil, err
		}
		r, closeFn, err := openArg(args, 1)
		if err != nil {
			return nil, err
		}
		defer closeFn()
		return ingest(ctx, c, t, names, r)
	case "query":
		t, err := tracker()
		if err != nil {
			return nil, err
		}
		r, closeFn, err := openArg(args, 1)
		if err != nil {
			return nil, err
		}
		defer closeFn()
		req, err := readQueryRequest(r)
		if err != nil {
			return nil, err
		}
		return c.Query(ctx, t, req)
	default:
		return nil, fmt.Errorf("unknown command %q (run simctl -h)", cmd)
	}
}

// openArg opens the file argument at position i, with "-" or absence
// meaning stdin.
func openArg(args []string, i int) (io.Reader, func(), error) {
	if len(args) <= i || args[i] == "-" {
		return os.Stdin, func() {}, nil
	}
	f, err := os.Open(args[i])
	if err != nil {
		return nil, nil, err
	}
	return f, func() { f.Close() }, nil
}

// ingest decodes the NDJSON stream client-side (mirroring the server's
// strict parsing, so errors name the offending record before any bytes hit
// the wire) and submits it as one batch.
func ingest(ctx context.Context, c *api.Client, tracker string, names bool, r io.Reader) (api.IngestResponse, error) {
	if names {
		var batch []api.NamedAction
		err := dataio.ReadNDJSONNamed(r, func(a api.NamedAction) bool {
			batch = append(batch, a)
			return true
		})
		if err != nil {
			return api.IngestResponse{}, err
		}
		return c.IngestNamed(ctx, tracker, batch)
	}
	var batch []sim.Action
	err := dataio.ReadNDJSON(r, func(a sim.Action) bool {
		batch = append(batch, a)
		return true
	})
	if err != nil {
		return api.IngestResponse{}, err
	}
	return c.Ingest(ctx, tracker, batch)
}

// readQueryRequest accepts either the full {"plan": ..., "limit": N}
// envelope or a bare plan object.
func readQueryRequest(r io.Reader) (api.QueryRequest, error) {
	raw, err := io.ReadAll(io.LimitReader(r, 1<<20))
	if err != nil {
		return api.QueryRequest{}, err
	}
	var req api.QueryRequest
	if err := strictUnmarshal(raw, &req); err == nil {
		return req, nil
	}
	var plan query.Plan
	if err := strictUnmarshal(raw, &plan); err != nil {
		return api.QueryRequest{}, fmt.Errorf("query: body is neither a request envelope nor a plan: %w", err)
	}
	return api.QueryRequest{Plan: plan}, nil
}

func strictUnmarshal(raw []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

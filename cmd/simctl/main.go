// Command simctl is a thin operational CLI over the typed api.Client: every
// subcommand maps to one /v1 endpoint and prints the response as JSON, so
// shell pipelines (and the smoke tests in internal/proc) exercise the same
// client path as embedded Go callers.
//
//	simctl -addr http://localhost:8384 health
//	simctl list
//	simctl seeds default
//	simctl ingest default actions.ndjson
//	tail -F actions.log | simctl ingest default -
//	echo '{"plan":{"scan":"seeds","ops":[{"op":"topk","col":"influence","k":3,"desc":true}]}}' |
//	    simctl query default -
//	simctl influence default 42
//	simctl candidates default -ranked
//
// ingest reads NDJSON (with string users when the tracker's spec, as GET
// /v1/trackers lists it, is name-mode) as it arrives and POSTs it in chunks
// of 1 000 actions, sending a partial chunk whenever the input has been
// quiet for 200 ms — so a file of any size, or a live feed that never ends,
// enters the tracker through POST /actions. It prints one response at EOF:
// accepted summed over the chunks, processed from the last. A malformed
// record stops it before its chunk is sent; the chunks before it stay
// applied, and the error names the record.
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
	"slices"
	"time"

	"repro/api"
	"repro/internal/dataio"
	"repro/query"
	"repro/sim"
)

const usage = `usage: simctl [-addr URL] [-timeout D] [-retries N] <command> [args]

commands:
  health                     GET /v1/healthz, printed as received (a simrouter's has per-shard health)
  list                       GET /v1/trackers
  snapshot <tracker>         GET /v1/trackers/{name}
  seeds <tracker>            GET /v1/trackers/{name}/seeds
  value <tracker>            GET /v1/trackers/{name}/value
  checkpoints <tracker>      GET /v1/trackers/{name}/checkpoints
  stats <tracker>            GET /v1/trackers/{name}/stats
  metrics <tracker>          GET /v1/trackers/{name}/metrics (state + self-healing counters)
  influence <tracker> <user> GET /v1/trackers/{name}/influence (user: ID, or name on a name-mode tracker)
  candidates <tracker> [-ranked]
                             GET /v1/trackers/{name}/candidates (shard-local seed pool; -ranked:
                             what a simserve hands a router — its greedy picks with gains, no sets)
  ingest <tracker> <file>    POST NDJSON actions in 1000-action chunks, flushing a
                             partial chunk after 200ms of quiet input ("-" = stdin;
                             string users if the tracker is name-mode)
  query <tracker> <file>     POST a JSON plan ("-" = stdin; bare plan or {"plan":...,"limit":N})

-addr may name a simrouter: it serves the same routes, merged across its
shards.
`

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8384", "simserve or simrouter base URL")
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

	out, err := run(ctx, client, args[0], args[1:])
	if err != nil {
		var apiErr *api.Error
		if errors.As(err, &apiErr) {
			fmt.Fprintf(os.Stderr, "simctl: %s\n", apiErr)
		} else {
			fmt.Fprintf(os.Stderr, "simctl: %v\n", err)
		}
		os.Exit(1)
	}
	if err := printJSON(os.Stdout, out); err != nil {
		fmt.Fprintf(os.Stderr, "simctl: %v\n", err)
		os.Exit(1)
	}
}

// printJSON writes a response as indented JSON.
func printJSON(w io.Writer, out any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// run dispatches one subcommand and returns the decoded response to print.
func run(ctx context.Context, c *api.Client, cmd string, args []string) (any, error) {
	tracker := func() (string, error) {
		if len(args) < 1 {
			return "", fmt.Errorf("%s: missing tracker name", cmd)
		}
		return args[0], nil
	}
	switch cmd {
	case "health":
		return c.HealthJSON(ctx)
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
		return ingest(ctx, c, t, r)
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

// ingestChunk is how many actions simctl ingest sends per POST, and
// ingestIdle how long the input may stay quiet before a partial chunk is
// sent anyway, so a live feed is served without waiting for a full chunk.
const (
	ingestChunk = 1000
	ingestIdle  = 200 * time.Millisecond
)

// ingest decodes the NDJSON stream client-side as it arrives — with string
// users when the tracker's spec says it is name-mode — and POSTs it in
// chunks, so its size is bounded by neither the server's body cap nor EOF.
// A tracker the list does not name is fed as numeric, and the first POST
// reports it unknown. A decode error is reported before the chunk it falls
// in is sent; earlier chunks stay applied. The result sums Accepted over the
// chunks and carries the last chunk's Processed; input without actions is
// sent as one empty batch.
func ingest(ctx context.Context, c *api.Client, tracker string, r io.Reader) (api.IngestResponse, error) {
	list, err := c.List(ctx)
	if err != nil {
		return api.IngestResponse{}, err
	}
	i := slices.IndexFunc(list.Trackers, func(ti api.TrackerInfo) bool { return ti.Name == tracker })
	if i >= 0 && list.Trackers[i].Spec.Names {
		return feed(ctx, r, dataio.ReadNDJSONNamed, func(b []api.NamedAction) (api.IngestResponse, error) {
			return c.IngestNamed(ctx, tracker, b)
		})
	}
	return feed(ctx, r, dataio.ReadNDJSON, func(b []sim.Action) (api.IngestResponse, error) {
		return c.Ingest(ctx, tracker, b)
	})
}

// feed runs read on its own goroutine and posts what it decodes in chunks
// of ingestChunk, plus a partial chunk whenever the input has been quiet
// for ingestIdle.
func feed[A any](ctx context.Context, r io.Reader, read func(io.Reader, func(A) bool) error,
	post func([]A) (api.IngestResponse, error)) (api.IngestResponse, error) {
	// A chunk of buffer lets decoding run ahead while a POST is in flight.
	recs := make(chan A, ingestChunk)
	readErr := make(chan error, 1)
	// stop ends the reader at its next action when feed returns early; a
	// reader blocked in Read on a quiet input stays blocked until the
	// process exits.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		readErr <- read(r, func(a A) bool {
			select {
			case recs <- a:
				return true
			case <-stop:
				return false
			}
		})
		close(recs)
	}()

	var out api.IngestResponse
	batch := make([]A, 0, ingestChunk)
	send := func() error {
		resp, err := post(batch)
		if err != nil {
			return err
		}
		out.Accepted += resp.Accepted
		out.Processed = resp.Processed
		batch = batch[:0]
		return nil
	}
	idle := time.NewTimer(ingestIdle)
	defer idle.Stop()
	for {
		select {
		case a, ok := <-recs:
			if !ok {
				if err := <-readErr; err != nil {
					return out, err
				}
				// Nothing sent yet: an empty POST still reports processed.
				var err error
				if len(batch) > 0 || out.Accepted == 0 {
					err = send()
				}
				return out, err
			}
			batch = append(batch, a)
			if len(batch) == ingestChunk {
				if err := send(); err != nil {
					return out, err
				}
			}
			idle.Reset(ingestIdle)
		case <-idle.C:
			if len(batch) > 0 {
				if err := send(); err != nil {
					return out, err
				}
			}
		case <-ctx.Done():
			return out, ctx.Err()
		}
	}
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

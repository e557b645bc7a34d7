package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/api"
	"repro/internal/dataio"
	"repro/internal/gen"
	"repro/internal/greedy"
	"repro/internal/router"
	"repro/internal/server"
	"repro/query"
	"repro/sim"
)

// testStream generates a small deterministic SYN-O-like stream.
func testStream(n int) []sim.Action {
	return gen.Stream(gen.SynO(300, n, 500, 42))
}

// newTestServer boots a registry with one tracker behind httptest and
// returns the typed client for it. Cleanup closes both.
func newTestServer(t *testing.T, spec api.Spec) (*api.Client, *server.Registry) {
	t.Helper()
	reg := server.NewRegistry()
	if _, err := reg.Add("default", spec); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(server.New(reg))
	t.Cleanup(srv.Close)
	t.Cleanup(func() { reg.Close() })
	return api.NewClient(srv.URL), reg
}

// TestIngestQueryRoundTripIdentity is the end-to-end acceptance test: the
// same NDJSON stream POSTed in chunks through the typed client — with
// reads, including relational /query plans, hammering the server
// concurrently — must leave the served tracker bit-identical to a serial
// sim.Tracker replay. Run under -race this also proves the read path never
// races the single-writer ingest loop.
func TestIngestQueryRoundTripIdentity(t *testing.T) {
	specs := map[string]api.Spec{
		"sic-sieve":    {K: 5, Window: 400},
		"ic-threshold": {K: 5, Window: 400, Framework: sim.IC, Oracle: sim.ThresholdStream},
		"sic-batched":  {K: 5, Window: 400, Batch: 64},
	}
	actions := testStream(2000)
	for name, spec := range specs {
		t.Run(name, func(t *testing.T) {
			client, _ := newTestServer(t, spec)
			ctx := context.Background()

			// Concurrent readers for the duration of the ingest.
			stop := make(chan struct{})
			var wg sync.WaitGroup
			reads := []func() error{
				func() error { _, err := client.Seeds(ctx, "default"); return err },
				func() error { _, err := client.Checkpoints(ctx, "default"); return err },
				func() error { _, err := client.Influence(ctx, "default", "1"); return err },
				func() error {
					_, err := client.Query(ctx, "default", api.QueryRequest{Plan: query.Plan{
						Scan: "seeds",
						Ops:  []query.Op{{Op: "topk", Col: "influence", K: 3, Desc: true}},
					}})
					return err
				},
			}
			for _, read := range reads {
				wg.Add(1)
				go func(read func() error) {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						if err := read(); err != nil {
							t.Error(err)
							return
						}
					}
				}(read)
			}

			// Ingest in NDJSON chunks of 100.
			for i := 0; i < len(actions); i += 100 {
				end := min(i+100, len(actions))
				ir, err := client.Ingest(ctx, "default", actions[i:end])
				if err != nil {
					t.Fatalf("ingest chunk at %d: %v", i, err)
				}
				if ir.Accepted != end-i || ir.Processed != int64(end) {
					t.Fatalf("chunk at %d: accepted=%d processed=%d, want %d/%d",
						i, ir.Accepted, ir.Processed, end-i, end)
				}
			}
			close(stop)
			wg.Wait()

			// Serial reference replay of the same actions, mirroring the
			// served call sequence: the boot publish, then one ProcessAll
			// per POSTed chunk followed by a snapshot (the ingest loop
			// flushes sim batching and publishes after every applied batch).
			// The concurrent reads above must not have added a publish: the
			// snapshot counts them (ViewRebuilds + ViewReuses).
			ref, err := sim.New(spec.Config())
			if err != nil {
				t.Fatal(err)
			}
			defer ref.Close()
			want := ref.Snapshot()
			for i := 0; i < len(actions); i += 100 {
				if err := ref.ProcessAll(actions[i:min(i+100, len(actions))]); err != nil {
					t.Fatal(err)
				}
				want = ref.Snapshot()
			}

			got, err := client.Snapshot(ctx, "default")
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("served snapshot differs from serial replay:\n got %+v\nwant %+v", got, want)
			}

			seeds, err := client.Seeds(ctx, "default")
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(seeds.Seeds, want.Seeds) || seeds.Value != want.Value {
				t.Errorf("seeds endpoint: %+v, want seeds=%v value=%v", seeds, want.Seeds, want.Value)
			}

			cps, err := client.Checkpoints(ctx, "default")
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(cps.Starts, want.CheckpointStarts) ||
				!reflect.DeepEqual(cps.Values, want.CheckpointValues) {
				t.Errorf("checkpoints endpoint: %+v, want starts=%v values=%v",
					cps, want.CheckpointStarts, want.CheckpointValues)
			}

			// Influence endpoint vs the reference tracker, for a seed user.
			if len(want.Seeds) > 0 {
				u := want.Seeds[0]
				inf, err := client.Influence(ctx, "default", fmt.Sprint(u))
				if err != nil {
					t.Fatal(err)
				}
				wantSet := ref.InfluenceSet(u)
				if !reflect.DeepEqual(inf.Influenced, wantSet) || inf.Count != len(wantSet) {
					t.Errorf("influence(%d) = %+v, want %v", u, inf, wantSet)
				}
			}

			// A served query plan vs the same plan run locally against the
			// snapshot the server just handed back: bit-identical rows.
			plan := query.Plan{Scan: "seeds", Ops: []query.Op{
				{Op: "topk", Col: "influence", K: 3, Desc: true},
				{Op: "project", Cols: []string{"user", "influence"}},
			}}
			res, err := client.Query(ctx, "default", api.QueryRequest{Plan: plan})
			if err != nil {
				t.Fatal(err)
			}
			rel, err := plan.Open(query.Env{Current: &got})
			if err != nil {
				t.Fatal(err)
			}
			wantSchema := rel.Schema()
			wantRows, _ := query.Collect(rel, 0)
			if !reflect.DeepEqual(res.Columns, []string(wantSchema)) {
				t.Errorf("query columns = %v, want %v", res.Columns, wantSchema)
			}
			if len(res.Rows) != len(wantRows) {
				t.Fatalf("query rows = %d, want %d", len(res.Rows), len(wantRows))
			}
			for i := range wantRows {
				if !reflect.DeepEqual(res.Rows[i], wantRows[i]) {
					t.Errorf("query row %d = %v, want %v", i, res.Rows[i], wantRows[i])
				}
			}
			if res.Processed != want.Processed {
				t.Errorf("query processed = %d, want %d", res.Processed, want.Processed)
			}
		})
	}
}

// TestQueryBlockedLoopIndependence is the HTAP-split proof: reads must
// answer even while the single-writer ingest loop is wedged and its queue is
// full, because they touch only the atomically published snapshot — /query,
// both forms of /candidates, /influence for a user the snapshot holds, and so
// a router's merged /seeds over two shards in that state. A closure parked on
// each loop simulates the wedge and one queued batch fills each queue.
// /influence for a user outside the snapshot is the one read that still rides
// the loop: it is shed with 429 once the enqueue deadline passes.
func TestQueryBlockedLoopIndependence(t *testing.T) {
	spec := api.Spec{K: 3, Window: 200, Queue: 1, EnqueueDeadlineMillis: 50}
	ctx := context.Background()
	var shards []*api.Client
	var regs []*server.Registry
	var addrs []string
	for i := 0; i < 2; i++ {
		client, reg := newTestServer(t, spec)
		shards, regs, addrs = append(shards, client), append(regs, reg), append(addrs, client.BaseURL)
	}
	rt, err := router.New(addrs, router.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	front := httptest.NewServer(rt)
	defer front.Close()
	cluster := api.NewClient(front.URL)
	actions := testStream(500)
	if _, err := cluster.Ingest(ctx, "default", actions); err != nil {
		t.Fatal(err)
	}

	release := make(chan struct{})
	loopDone := make(chan error, len(regs))
	for _, reg := range regs {
		tk, _ := reg.Get("default")
		parked := make(chan struct{})
		go func() {
			loopDone <- tk.Query(context.Background(), func(*sim.Tracker) {
				close(parked)
				<-release
			})
		}()
		<-parked // the ingest loop is now blocked inside the closure
		next := actions[len(actions)-1].ID + 1
		if err := tk.SubmitAsync(ctx, []sim.Action{{ID: next, User: 1, Parent: sim.NoParent}}); err != nil {
			t.Fatalf("filling the queue: %v", err)
		}
		if depth, capacity := tk.QueueDepth(); depth != capacity {
			t.Fatalf("queue holds %d of %d: not full", depth, capacity)
		}
	}

	client := shards[0]
	snap, err := client.Snapshot(ctx, "default")
	if err != nil {
		t.Fatal(err)
	}
	res, err := client.Query(ctx, "default", api.QueryRequest{Plan: query.Plan{
		Scan: "seeds",
		Ops:  []query.Op{{Op: "topk", Col: "influence", K: 3, Desc: true}},
	}})
	if err != nil {
		t.Fatalf("query with a blocked ingest loop: %v", err)
	}
	if len(res.Rows) == 0 || res.Processed != snap.Processed {
		t.Fatalf("query under blocked loop: %d rows, processed=%d", len(res.Rows), res.Processed)
	}
	full, err := client.Candidates(ctx, "default")
	if err != nil {
		t.Fatalf("candidates with a blocked ingest loop: %v", err)
	}
	if len(full.Candidates) < len(snap.Seeds) || full.Processed != snap.Processed {
		t.Fatalf("candidates under blocked loop: %d candidates, processed=%d", len(full.Candidates), full.Processed)
	}
	ranked, err := client.CandidatesRanked(ctx, "default")
	if err != nil {
		t.Fatalf("ranked candidates with a blocked ingest loop: %v", err)
	}
	if len(ranked.Candidates) == 0 || ranked.Processed != snap.Processed {
		t.Fatalf("ranked candidates under blocked loop: %d picks, processed=%d", len(ranked.Candidates), ranked.Processed)
	}
	seed := snap.Seeds[0]
	inf, err := client.Influence(ctx, "default", fmt.Sprint(seed))
	if err != nil {
		t.Fatalf("influence of a seed with a blocked ingest loop: %v", err)
	}
	if !reflect.DeepEqual(inf.Influenced, snap.SeedInfluence[0].Influenced) || inf.Count != len(inf.Influenced) {
		t.Fatalf("influence(%d) under blocked loop = %+v, snapshot holds %v", seed, inf, snap.SeedInfluence[0].Influenced)
	}
	merged, err := cluster.Seeds(ctx, "default")
	if err != nil {
		t.Fatalf("router /seeds over shards with blocked ingest loops: %v", err)
	}
	if len(merged.Seeds) == 0 || merged.Partial || merged.Processed != int64(len(actions)) {
		t.Fatalf("router /seeds under blocked loops: %+v", merged)
	}

	// A user the snapshot does not hold still needs the live index.
	const outsider = 1 << 20
	if _, ok := snap.Influence(outsider); ok {
		t.Fatalf("user %d is in the snapshot's pool", outsider)
	}
	_, err = client.Influence(ctx, "default", fmt.Sprint(outsider))
	var apiErr *api.Error
	if !errors.As(err, &apiErr) || apiErr.Code != http.StatusTooManyRequests {
		t.Fatalf("influence of an unpublished user under a full queue: %v, want 429", err)
	}

	close(release)
	for range regs {
		if err := <-loopDone; err != nil {
			t.Fatal(err)
		}
	}
	// Unwedged, the same request goes through the loop and answers.
	if inf, err := client.Influence(ctx, "default", fmt.Sprint(outsider)); err != nil || inf.Count != 0 {
		t.Fatalf("influence of an unpublished user after release: %+v, %v", inf, err)
	}
}

// TestQueryIngestHammer runs sustained concurrent ingest and query load
// (under -race) and checks every query observes a consistent snapshot:
// Processed never goes backwards across successive responses on one
// goroutine, and rows always match the schema width.
func TestQueryIngestHammer(t *testing.T) {
	client, _ := newTestServer(t, api.Spec{K: 5, Window: 400})
	ctx := context.Background()
	actions := testStream(4000)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for q := 0; q < 3; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastProcessed int64
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := client.Query(ctx, "default", api.QueryRequest{Plan: query.Plan{
					Scan: "influence",
					Ops: []query.Op{
						{Op: "filter", Col: "seed", Cmp: ">=", Value: intVal(0)},
						{Op: "topk", Col: "user", K: 5, Desc: true},
					},
				}})
				if err != nil {
					t.Error(err)
					return
				}
				if res.Processed < lastProcessed {
					t.Errorf("query processed went backwards: %d after %d", res.Processed, lastProcessed)
					return
				}
				lastProcessed = res.Processed
				for _, row := range res.Rows {
					if len(row) != len(res.Columns) {
						t.Errorf("row width %d vs %d columns", len(row), len(res.Columns))
						return
					}
				}
			}
		}()
	}
	for i := 0; i < len(actions); i += 200 {
		if _, err := client.Ingest(ctx, "default", actions[i:min(i+200, len(actions))]); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

func intVal(v int64) *query.Value {
	x := query.IntValue(v)
	return &x
}

// TestQueryEndpointShapes covers the request surface of /query: limits and
// truncation, window-compare sources, and the 400 contract for bad plans.
func TestQueryEndpointShapes(t *testing.T) {
	client, _ := newTestServer(t, api.Spec{K: 5, Window: 400})
	ctx := context.Background()
	actions := testStream(1500)
	// Two chunks so a previous snapshot exists for compare sources.
	if _, err := client.Ingest(ctx, "default", actions[:1000]); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Ingest(ctx, "default", actions[1000:]); err != nil {
		t.Fatal(err)
	}

	// limit + truncated: the influence scan has many rows; cap at 3.
	res, err := client.Query(ctx, "default", api.QueryRequest{
		Plan:  query.Plan{Scan: "influence"},
		Limit: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 || !res.Truncated {
		t.Errorf("limited query: %d rows truncated=%v, want 3/true", len(res.Rows), res.Truncated)
	}

	// Window compare runs off the previous published snapshot.
	res, err = client.Query(ctx, "default", api.QueryRequest{
		Plan: query.Plan{Compare: "checkpoints"},
	})
	if err != nil {
		t.Fatal(err)
	}
	wantCols := []string{"start", "status", "value_old", "value_new", "delta"}
	if !reflect.DeepEqual(res.Columns, wantCols) {
		t.Errorf("compare columns = %v, want %v", res.Columns, wantCols)
	}
	if len(res.Rows) == 0 {
		t.Error("checkpoint compare returned no rows")
	}

	// Bad plans and bad requests are 400s through the typed error.
	for name, req := range map[string]api.QueryRequest{
		"unknown scan":   {Plan: query.Plan{Scan: "bogus"}},
		"unknown op":     {Plan: query.Plan{Scan: "seeds", Ops: []query.Op{{Op: "frobnicate"}}}},
		"unknown column": {Plan: query.Plan{Scan: "seeds", Ops: []query.Op{{Op: "topk", Col: "nope", K: 1}}}},
		"negative limit": {Plan: query.Plan{Scan: "seeds"}, Limit: -1},
		"empty plan":     {},
	} {
		_, err := client.Query(ctx, "default", req)
		var apiErr *api.Error
		if !errors.As(err, &apiErr) || apiErr.Code != http.StatusBadRequest {
			t.Errorf("%s: err = %v, want *api.Error with 400", name, err)
		}
	}
}

// TestShutdownDrainsQueue fills the bounded ingest queue asynchronously and
// closes the registry: every queued batch must be applied before Close
// returns, and the drained state must match a serial replay.
func TestShutdownDrainsQueue(t *testing.T) {
	reg := server.NewRegistry()
	tk, err := reg.Add("default", api.Spec{K: 5, Window: 400, Queue: 128})
	if err != nil {
		t.Fatal(err)
	}
	actions := testStream(3000)
	ctx := context.Background()
	for i := 0; i < len(actions); i += 50 {
		end := min(i+50, len(actions))
		if err := tk.SubmitAsync(ctx, actions[i:end]); err != nil {
			t.Fatalf("enqueue at %d: %v", i, err)
		}
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	snap := tk.Snapshot()
	if snap.Processed != int64(len(actions)) {
		t.Fatalf("drained %d actions, want %d", snap.Processed, len(actions))
	}
	ref, err := sim.New(api.Spec{K: 5, Window: 400}.Config())
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.ProcessAll(actions); err != nil {
		t.Fatal(err)
	}
	// The replay publishes once where the server published per batch; the
	// view counters tell the two histories apart, the state must not.
	got, want := *snap, ref.Snapshot()
	got.ViewRebuilds, got.ViewReuses, got.ViewRefreshed = want.ViewRebuilds, want.ViewReuses, want.ViewRefreshed
	if !reflect.DeepEqual(got, want) {
		t.Errorf("drained snapshot differs from serial replay:\n got %+v\nwant %+v", got, want)
	}

	// After Close, all entry points fail with ErrClosed.
	if _, err := tk.Submit(ctx, actions[:1]); err != server.ErrClosed {
		t.Errorf("Submit after Close = %v, want ErrClosed", err)
	}
	if err := tk.Query(ctx, func(*sim.Tracker) {}); err != server.ErrClosed {
		t.Errorf("Query after Close = %v, want ErrClosed", err)
	}
	// Close is idempotent.
	if err := reg.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// TestErrorContract is the error-contract table of ISSUE 6: every non-2xx
// response carries the JSON envelope {"error": ..., "code": <status>}, with
// the documented status per failure class.
func TestErrorContract(t *testing.T) {
	reg := server.NewRegistry()
	if _, err := reg.Add("default", api.Spec{K: 2, Window: 100}); err != nil {
		t.Fatal(err)
	}
	handler := server.New(reg)
	handler.MaxBodyBytes = 1 << 10 // make 413 reachable with a small body
	srv := httptest.NewServer(handler)
	defer srv.Close()

	// Seed one action so a duplicate-ID replay conflicts below.
	if resp, err := http.Post(srv.URL+"/v1/trackers/default/actions",
		"application/x-ndjson", strings.NewReader(`{"id":5,"user":1}`+"\n")); err != nil || resp.StatusCode != 200 {
		t.Fatalf("setup ingest: %v %v", err, resp.Status)
	}

	bigBody := strings.Repeat(`{"id":9,"user":1}`+"\n", 200) // > 1 KiB

	cases := []struct {
		name     string
		method   string
		path     string
		body     string
		wantCode int
	}{
		{"unknown tracker read", "GET", "/v1/trackers/nope/seeds", "", 404},
		{"unknown tracker ingest", "POST", "/v1/trackers/nope/actions", `{"id":1,"user":1}` + "\n", 404},
		{"unknown tracker query", "POST", "/v1/trackers/nope/query", `{"plan":{"scan":"seeds"}}`, 404},
		{"malformed ndjson", "POST", "/v1/trackers/default/actions", "{oops}\n", 400},
		{"named action on numeric tracker", "POST", "/v1/trackers/default/actions", `{"id":9,"user":"alice"}` + "\n", 400},
		{"bad user param", "GET", "/v1/trackers/default/influence?user=bogus", "", 400},
		{"missing user param", "GET", "/v1/trackers/default/influence", "", 400},
		{"non-monotonic id", "POST", "/v1/trackers/default/actions", `{"id":5,"user":1}` + "\n", 409},
		{"oversized ingest body", "POST", "/v1/trackers/default/actions", bigBody, 413},
		{"undecodable query body", "POST", "/v1/trackers/default/query", "not json", 400},
		{"unknown query field", "POST", "/v1/trackers/default/query", `{"plam":{}}`, 400},
		{"bad plan", "POST", "/v1/trackers/default/query", `{"plan":{"scan":"bogus"}}`, 400},
	}
	check := func(t *testing.T, resp *http.Response, wantCode int) {
		t.Helper()
		defer resp.Body.Close()
		if resp.StatusCode != wantCode {
			t.Fatalf("status = %d, want %d", resp.StatusCode, wantCode)
		}
		var er api.ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
			t.Fatalf("non-2xx body is not the error envelope: %v", err)
		}
		if er.Error == "" || er.Code != wantCode {
			t.Fatalf("envelope = %+v, want non-empty error with code %d", er, wantCode)
		}
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var resp *http.Response
			var err error
			switch c.method {
			case "GET":
				resp, err = http.Get(srv.URL + c.path)
			default:
				ct := "application/x-ndjson"
				if strings.HasSuffix(c.path, "/query") {
					ct = "application/json"
				}
				resp, err = http.Post(srv.URL+c.path, ct, strings.NewReader(c.body))
			}
			if err != nil {
				t.Fatal(err)
			}
			check(t, resp, c.wantCode)
		})
	}

	// 503 while draining: close the registry under the live listener.
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/trackers/default/actions",
		"application/x-ndjson", strings.NewReader(`{"id":6,"user":1}`+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	check(t, resp, 503)

	// The typed client surfaces the same contract as *api.Error.
	client := api.NewClient(srv.URL)
	_, err = client.Seeds(context.Background(), "nope")
	var apiErr *api.Error
	if !errors.As(err, &apiErr) || apiErr.Code != 404 ||
		!strings.Contains(apiErr.Error(), "unknown tracker") {
		t.Errorf("client error = %v, want *api.Error 404 mentioning the tracker", err)
	}
}

// TestNamesMode exercises a name-mode tracker end to end: named NDJSON in,
// names on seeds and influence out, the names query operator, and strict
// mode exclusivity at the wire.
func TestNamesMode(t *testing.T) {
	client, _ := newTestServer(t, api.Spec{K: 2, Window: 64, Names: true})
	ctx := context.Background()

	// The paper's Figure 1 cascade, with names instead of raw IDs.
	np := sim.NoParent
	batch := []api.NamedAction{
		{ID: 1, User: "alice", Parent: np},
		{ID: 2, User: "bob", Parent: 1},
		{ID: 3, User: "carol", Parent: np},
		{ID: 4, User: "carol", Parent: 1},
		{ID: 5, User: "dave", Parent: 3},
		{ID: 6, User: "alice", Parent: 3},
		{ID: 7, User: "erin", Parent: 3},
		{ID: 8, User: "dave", Parent: 7},
	}
	ir, err := client.IngestNamed(ctx, "default", batch)
	if err != nil {
		t.Fatal(err)
	}
	if ir.Accepted != 8 || ir.Processed != 8 {
		t.Fatalf("named ingest: %+v", ir)
	}

	seeds, err := client.Seeds(ctx, "default")
	if err != nil {
		t.Fatal(err)
	}
	// Interning is first-appearance dense: alice=0, bob=1, carol=2, ...
	if !reflect.DeepEqual(seeds.Seeds, []sim.UserID{0, 2}) ||
		!reflect.DeepEqual(seeds.Names, []string{"alice", "carol"}) {
		t.Fatalf("seeds = %+v, want users [0 2] named [alice carol]", seeds)
	}

	inf, err := client.Influence(ctx, "default", "carol")
	if err != nil {
		t.Fatal(err)
	}
	if inf.Name != "carol" || inf.Count == 0 {
		t.Errorf("influence(carol) = %+v", inf)
	}
	if _, err := client.Influence(ctx, "default", "mallory"); err == nil ||
		!strings.Contains(err.Error(), "404") {
		t.Errorf("unknown name: err = %v, want 404", err)
	}

	// The names operator resolves the dense user column back to names.
	res, err := client.Query(ctx, "default", api.QueryRequest{Plan: query.Plan{
		Scan: "seeds",
		Ops: []query.Op{
			{Op: "names", Cols: []string{"user"}},
			{Op: "project", Cols: []string{"user"}},
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, row := range res.Rows {
		got = append(got, row[0].Str())
	}
	if !reflect.DeepEqual(got, []string{"alice", "carol"}) {
		t.Errorf("names query = %v, want [alice carol]", got)
	}

	// Mode exclusivity: numeric users on a name-mode tracker are a 400.
	_, err = client.Ingest(ctx, "default", []sim.Action{{ID: 9, User: 1, Parent: np}})
	var apiErr *api.Error
	if !errors.As(err, &apiErr) || apiErr.Code != 400 {
		t.Errorf("numeric ingest on name-mode tracker: %v, want 400", err)
	}
}

// TestNamesDurableRecovery round-trips the intern table through each place
// it lives on disk — the snapshot (graceful shutdown), the WAL's names
// trailers alone (kill -9 before any snapshot), and a snapshot holding some
// names with the WAL tail holding the rest: a durable name-mode tracker must
// come back resolving the same names to the same dense IDs, both for
// lookups and for continued ingest, as an uninterrupted tracker does.
func TestNamesDurableRecovery(t *testing.T) {
	spec := api.Spec{K: 2, Window: 64, Names: true}
	ctx := context.Background()
	np := sim.NoParent
	first := []api.NamedAction{
		{ID: 1, User: "alice", Parent: np},
		{ID: 2, User: "bob", Parent: 1},
		{ID: 3, User: "carol", Parent: 1},
	}
	second := []api.NamedAction{
		{ID: 4, User: "erin", Parent: 3},
		{ID: 5, User: "bob", Parent: 4},
		{ID: 6, User: "frank", Parent: 1},
	}
	more := []api.NamedAction{
		{ID: 7, User: "dave", Parent: 3},
		{ID: 8, User: "alice", Parent: 7},
		{ID: 9, User: "frank", Parent: 8},
	}
	// serve boots a registry over dir (memory-only when dir is "").
	serve := func(dir string) (*server.Registry, *api.Client) {
		t.Helper()
		reg := server.NewRegistry()
		if dir != "" {
			reg.SetDataDir(dir)
		}
		if _, err := reg.Add("t", spec); err != nil {
			t.Fatalf("Add: %v", err)
		}
		srv := httptest.NewServer(server.New(reg))
		t.Cleanup(srv.Close)
		t.Cleanup(func() { reg.Close() })
		return reg, api.NewClient(srv.URL)
	}
	ingest := func(c *api.Client, batch []api.NamedAction) {
		t.Helper()
		if _, err := c.IngestNamed(ctx, "t", batch); err != nil {
			t.Fatal(err)
		}
	}
	// same asserts that c and ref answer identically by name.
	same := func(label string, c, ref *api.Client) {
		t.Helper()
		for _, name := range []string{"alice", "carol", "erin", "frank"} {
			got, err := c.Influence(ctx, "t", name)
			if err != nil {
				t.Fatalf("%s: influence(%s): %v", label, name, err)
			}
			want, err := ref.Influence(ctx, "t", name)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: influence(%s) = %+v, want %+v", label, name, got, want)
			}
		}
		got, err := c.Seeds(ctx, "t")
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Seeds(ctx, "t")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: seeds = %+v, want %+v", label, got, want)
		}
	}
	_, ref := serve("")
	ingest(ref, first)
	ingest(ref, second)

	for _, tc := range []struct {
		name string
		// snapshotFirst closes gracefully after the first batch, so the
		// snapshot holds its names and the WAL only the second's.
		snapshotFirst bool
		crash         bool // kill -9 after the second batch, no snapshot
	}{
		{name: "snapshot"},
		{name: "wal-trailers", crash: true},
		{name: "snapshot-and-wal-tail", snapshotFirst: true, crash: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			reg, c := serve(dir)
			ingest(c, first)
			if tc.snapshotFirst {
				if err := reg.Close(); err != nil {
					t.Fatal(err)
				}
				reg, c = serve(dir)
			}
			ingest(c, second)
			if tc.crash {
				crash := t.TempDir()
				if err := os.CopyFS(crash, os.DirFS(dir)); err != nil {
					t.Fatal(err)
				}
				dir = crash
			} else if err := reg.Close(); err != nil {
				t.Fatal(err)
			}

			_, recovered := serve(dir)
			same("recovered", recovered, ref)
			ingest(recovered, more)
			_, cont := serve("")
			ingest(cont, first)
			ingest(cont, second)
			ingest(cont, more)
			same("continued ingest", recovered, cont)
		})
	}
}

// TestMetricsAndList checks the operational endpoints.
func TestMetricsAndList(t *testing.T) {
	client, _ := newTestServer(t, api.Spec{K: 2, Window: 100})
	ctx := context.Background()
	if _, err := client.Ingest(ctx, "default", testStream(100)); err != nil {
		t.Fatal(err)
	}

	mresp, err := http.Get(client.BaseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		"simserve_trackers 1",
		`simserve_ingested_total{tracker="default"} 100`,
		`simserve_checkpoints_live{tracker="default"}`,
		`simserve_queue_capacity{tracker="default"} 256`,
		"simserve_uptime_seconds",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics output missing %q:\n%s", want, body)
		}
	}

	// The oracle-feed work counters: same numbers on both metrics
	// endpoints, and never more scans than elements fed.
	tm, err := client.TrackerMetrics(ctx, "default")
	if err != nil {
		t.Fatal(err)
	}
	stats, err := client.Stats(ctx, "default")
	if err != nil {
		t.Fatal(err)
	}
	if tm.Scans <= 0 || tm.Scans > stats.Stats.ElementsFed || tm.ScanMembers < tm.Scans {
		t.Errorf("scans = %d, scan members = %d with %d elements fed", tm.Scans, tm.ScanMembers, stats.Stats.ElementsFed)
	}
	if tm.ElementsUnchanged <= 0 {
		t.Errorf("elements unchanged = %d after 100 actions: no action repeated a contribution?", tm.ElementsUnchanged)
	}
	// The view counters: one publish at boot and one per applied batch, and
	// none for the reads above.
	if tm.ViewRebuilds+tm.ViewReuses != 2 {
		t.Errorf("view rebuilds = %d, reuses = %d after boot and one batch", tm.ViewRebuilds, tm.ViewReuses)
	}
	for _, want := range []string{
		fmt.Sprintf(`simserve_scans_total{tracker="default"} %d`, tm.Scans),
		fmt.Sprintf(`simserve_scan_members_total{tracker="default"} %d`, tm.ScanMembers),
		fmt.Sprintf(`simserve_elements_unchanged_total{tracker="default"} %d`, tm.ElementsUnchanged),
		fmt.Sprintf(`simserve_view_rebuilds_total{tracker="default"} %d`, tm.ViewRebuilds),
		fmt.Sprintf(`simserve_view_reuses_total{tracker="default"} %d`, tm.ViewReuses),
		fmt.Sprintf(`simserve_view_refreshed_total{tracker="default"} %d`, tm.ViewRefreshed),
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics output missing %q:\n%s", want, body)
		}
	}

	list, err := client.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list.Trackers) != 1 || list.Trackers[0].Name != "default" ||
		list.Trackers[0].Processed != 100 || list.Trackers[0].Spec.K != 2 {
		t.Errorf("list = %+v", list)
	}

	health, err := client.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" {
		t.Errorf("health = %+v", health)
	}

}

// TestRegistryAdd covers registry-level validation.
func TestRegistryAdd(t *testing.T) {
	reg := server.NewRegistry()
	if _, err := reg.Add("", api.Spec{K: 1, Window: 10}); err == nil {
		t.Error("empty name should fail")
	}
	if _, err := reg.Add("a", api.Spec{K: 0, Window: 10}); err == nil {
		t.Error("invalid sim config should fail")
	}
	if _, err := reg.Add("a", api.Spec{K: 1, Window: 10}); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Add("a", api.Spec{K: 1, Window: 10}); err == nil {
		t.Error("duplicate name should fail")
	}
	if got := reg.Names(); !reflect.DeepEqual(got, []string{"a"}) {
		t.Errorf("Names = %v", got)
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAddMemoryBudgetNeedsSpillDir pins the spill-directory guard: a memory
// budget is only accepted when the tracker has somewhere to spill, and the
// error — which stops simserve's boot — says which flags provide one.
func TestAddMemoryBudgetNeedsSpillDir(t *testing.T) {
	cases := []struct {
		name     string
		budget   int64
		durable  bool
		spill    bool
		wantHint string // "" = Add succeeds
	}{
		{"no budget", 0, false, false, ""},
		{"budget, nowhere to spill", 1 << 20, false, false, "-spill-dir"},
		{"budget with spill dir", 1 << 20, false, true, ""},
		{"budget with data dir", 1 << 20, true, false, ""},
		{"negative budget", -1, true, true, "MemoryBudgetBytes"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			reg := server.NewRegistry()
			defer reg.Close()
			if c.durable {
				reg.SetDataDir(t.TempDir())
			}
			if c.spill {
				reg.SetSpillDir(t.TempDir())
			}
			_, err := reg.Add("default", api.Spec{K: 5, Window: 100, MemoryBudgetBytes: c.budget})
			if (err != nil) != (c.wantHint != "") {
				t.Fatalf("Add(budget=%d durable=%v spill=%v) = %v, want error: %v",
					c.budget, c.durable, c.spill, err, c.wantHint != "")
			}
			if err != nil && !strings.Contains(err.Error(), c.wantHint) {
				t.Errorf("error %q does not mention %q", err, c.wantHint)
			}
		})
	}
}

// ndjsonBody encodes actions as an NDJSON request body (raw-wire tests).
func ndjsonBody(t *testing.T, actions []sim.Action) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	if err := dataio.WriteNDJSON(&buf, actions); err != nil {
		t.Fatal(err)
	}
	return &buf
}

// TestRawWireCompatibility pins the documented curl-level wire format: the
// same NDJSON bytes and JSON plan a shell client would send, no api.Client.
func TestRawWireCompatibility(t *testing.T) {
	client, _ := newTestServer(t, api.Spec{K: 2, Window: 100})
	resp, err := http.Post(client.BaseURL+"/v1/trackers/default/actions",
		"application/x-ndjson", ndjsonBody(t, testStream(50)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("raw ingest: %d", resp.StatusCode)
	}
	qresp, err := http.Post(client.BaseURL+"/v1/trackers/default/query", "application/json",
		strings.NewReader(`{"plan":{"scan":"seeds","ops":[{"op":"topk","col":"influence","k":1,"desc":true}]}}`))
	if err != nil {
		t.Fatal(err)
	}
	defer qresp.Body.Close()
	if qresp.StatusCode != 200 {
		body, _ := io.ReadAll(qresp.Body)
		t.Fatalf("raw query: %d: %s", qresp.StatusCode, body)
	}
	var qr api.QueryResponse
	if err := json.NewDecoder(qresp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Rows) != 1 || qr.Processed != 50 {
		t.Errorf("raw query response: %+v", qr)
	}
}

// candidatesFixture boots a tracker over the first 400 actions of the test
// stream — numeric, or name-mode with users named "user-<id>".
func candidatesFixture(t *testing.T, names bool) *api.Client {
	t.Helper()
	ctx := context.Background()
	client, _ := newTestServer(t, api.Spec{K: 3, Window: 200, Names: names})
	var err error
	if names {
		var named []api.NamedAction
		for _, a := range testStream(400) {
			named = append(named, api.NamedAction{ID: a.ID, User: fmt.Sprintf("user-%d", a.User), Parent: a.Parent})
		}
		_, err = client.IngestNamed(ctx, "default", named)
	} else {
		_, err = client.Ingest(ctx, "default", testStream(400))
	}
	if err != nil {
		t.Fatal(err)
	}
	return client
}

// TestCandidatesWireCompatibility pins the full form of /candidates to the
// bytes the endpoint produced when it still ran on the ingest loop (the
// golden files were written by that implementation): the ranked form and the
// move to the snapshot must not show on the wire — no "gain" key, candidates
// ascending by user, an empty pool as [] rather than null. The files pin the
// pool's content too, so the two non-empty ones were re-captured when the
// feed stopped re-offering unchanged sets (PR 20): user 32 left the pool and
// user 17 joined it, every key and every other member as before.
func TestCandidatesWireCompatibility(t *testing.T) {
	empty, _ := newTestServer(t, api.Spec{K: 3, Window: 200})
	for _, c := range []struct {
		golden string
		client *api.Client
	}{
		{"candidates_empty.golden", empty},
		{"candidates_numeric.golden", candidatesFixture(t, false)},
		{"candidates_names.golden", candidatesFixture(t, true)},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", c.golden))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Get(c.client.BaseURL + "/v1/trackers/default/candidates")
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: /candidates body changed:\n got %s\nwant %s", c.golden, got, want)
		}
	}
}

// TestCandidatesRanked: the ranked form is the greedy ranking of exactly the
// pool the full form lists — same picks, same order, same gains — without
// the sets, and with names on a name-mode tracker.
func TestCandidatesRanked(t *testing.T) {
	ctx := context.Background()
	for _, names := range []bool{false, true} {
		client := candidatesFixture(t, names)
		full, err := client.Candidates(ctx, "default")
		if err != nil {
			t.Fatal(err)
		}
		ranked, err := client.CandidatesRanked(ctx, "default")
		if err != nil {
			t.Fatal(err)
		}
		sets := map[sim.UserID][]sim.UserID{}
		nameOf := map[sim.UserID]string{}
		for _, c := range full.Candidates {
			sets[c.User], nameOf[c.User] = c.Influenced, c.Name
		}
		users, gains := greedy.RankSets(sets, full.K, nil)
		if len(users) == 0 || len(ranked.Candidates) != len(users) {
			t.Fatalf("names=%v: %d ranked candidates, greedy over the full pool picks %d", names, len(ranked.Candidates), len(users))
		}
		for i, c := range ranked.Candidates {
			if c.User != users[i] || c.Gain != gains[i] || c.Coverage != float64(len(sets[c.User])) || c.Name != nameOf[c.User] {
				t.Errorf("names=%v: ranked[%d] = %+v, want user %d (%q) gain %v coverage %d",
					names, i, c, users[i], nameOf[users[i]], gains[i], len(sets[users[i]]))
			}
			if c.Influenced != nil || c.InfluencedNames != nil {
				t.Errorf("names=%v: ranked[%d] carries a set: %+v", names, i, c)
			}
		}
		if ranked.K != full.K || ranked.Value != full.Value || ranked.WindowStart != full.WindowStart || ranked.Processed != full.Processed {
			t.Errorf("names=%v: ranked envelope %+v differs from the full form's %+v", names, ranked, full)
		}
		resp, err := http.Get(client.BaseURL + "/v1/trackers/default/candidates?ranked=maybe")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("names=%v: ranked=maybe answered %d, want 400", names, resp.StatusCode)
		}
	}
}

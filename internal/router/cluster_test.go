package router_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/api"
	"repro/internal/gen"
	"repro/internal/router"
	"repro/internal/server"
	"repro/query"
	"repro/sim"
)

// cluster is one 1-router × N-shard topology over httptest servers, the
// harness of every test below.
type cluster struct {
	shards []*httptest.Server
	regs   []*server.Registry
	router *router.Router
	front  *httptest.Server
	client *api.Client
}

// newCluster boots n shard servers each holding tracker "default" built
// from spec, and a router over them. Everything is torn down by t.Cleanup.
func newCluster(t *testing.T, n int, spec api.Spec) *cluster {
	t.Helper()
	c := &cluster{}
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		reg := server.NewRegistry()
		if _, err := reg.Add("default", spec); err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		srv := server.New(reg)
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		t.Cleanup(func() { _ = reg.Close() })
		c.shards = append(c.shards, ts)
		c.regs = append(c.regs, reg)
		addrs[i] = ts.URL
	}
	router.SetProbeInterval(t, 50*time.Millisecond)
	rt, err := router.New(addrs, router.Options{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	c.router = rt
	c.front = httptest.NewServer(rt)
	t.Cleanup(c.front.Close)
	c.client = api.NewClient(c.front.URL)
	c.client.Timeout = 10 * time.Second
	return c
}

// ingestAll pushes actions through the router in fixed-size batches.
func ingestAll(t *testing.T, c *api.Client, actions []sim.Action, chunk int) {
	t.Helper()
	ctx := context.Background()
	for lo := 0; lo < len(actions); lo += chunk {
		hi := lo + chunk
		if hi > len(actions) {
			hi = len(actions)
		}
		if _, err := c.Ingest(ctx, "default", actions[lo:hi]); err != nil {
			t.Fatalf("ingest [%d,%d): %v", lo, hi, err)
		}
	}
}

// partition splits a stream by the router's own ring, preserving order —
// exactly the sub-streams the shards receive.
func partition(ring *router.Ring, actions []sim.Action) [][]sim.Action {
	parts := make([][]sim.Action, ring.Shards())
	for _, a := range actions {
		i := ring.ShardForID(a.User)
		parts[i] = append(parts[i], a)
	}
	return parts
}

// refTrackers runs one standalone sim.Tracker per sub-stream: the
// single-process reference the router's merges must reproduce bit for bit.
func refTrackers(t *testing.T, cfg sim.Config, parts [][]sim.Action) []*sim.Tracker {
	t.Helper()
	out := make([]*sim.Tracker, len(parts))
	for i, part := range parts {
		tr, err := sim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = tr.Close() })
		if err := tr.ProcessAll(part); err != nil {
			t.Fatal(err)
		}
		out[i] = tr
	}
	return out
}

func clusterDatasets(names ...string) []struct {
	name    string
	actions []sim.Action
} {
	const (
		users  = 500
		stream = 2600
		window = 700
		seed   = 11
	)
	cfgs := []gen.Config{
		gen.RedditLike(users, stream, window, seed),
		gen.TwitterLike(users, stream, window, seed),
		gen.SynO(users, stream, window, seed),
		gen.SynN(users, stream, window, seed),
	}
	var out []struct {
		name    string
		actions []sim.Action
	}
	for _, c := range cfgs {
		if len(names) > 0 {
			keep := false
			for _, n := range names {
				keep = keep || n == c.Name
			}
			if !keep {
				continue
			}
		}
		out = append(out, struct {
			name    string
			actions []sim.Action
		}{c.Name, gen.Stream(c)})
	}
	return out
}

func clusterSpec(fw sim.Framework) api.Spec {
	return api.Spec{
		K: 6, Window: 700, Slide: 50, Beta: 0.1,
		Framework: fw, TimeBased: true,
	}
}

// TestClusterAdditiveIdentity is invariant (a) of the suite: every additive
// read served by the router — value, window, checkpoints, stats — is
// bit-identical to the sum/merge over standalone reference trackers fed the
// same ring-partitioned sub-streams. User partitioning makes shard
// influence universes disjoint, so these merges are exact, and the router's
// HTTP round trip (JSON float64 round-trips losslessly) must introduce zero
// drift.
func TestClusterAdditiveIdentity(t *testing.T) {
	for _, ds := range clusterDatasets("Reddit", "SYN-O") {
		for _, fw := range []sim.Framework{sim.SIC, sim.IC} {
			for _, shards := range []int{2, 4} {
				t.Run(fmt.Sprintf("%s/%v/shards=%d", ds.name, fw, shards), func(t *testing.T) {
					spec := clusterSpec(fw)
					c := newCluster(t, shards, spec)
					ingestAll(t, c.client, ds.actions, 500)
					refs := refTrackers(t, spec.Config(), partition(c.router.Ring(), ds.actions))

					ctx := context.Background()

					// value: exact additive sum, in shard index order so
					// float accumulation order matches the router's.
					wantValue := 0.0
					for _, ref := range refs {
						wantValue += ref.Value()
					}
					gotValue, err := c.client.Value(ctx, "default")
					if err != nil {
						t.Fatal(err)
					}
					if gotValue.Value != wantValue {
						t.Errorf("value: router %v != reference sum %v", gotValue.Value, wantValue)
					}
					if gotValue.Processed != int64(len(ds.actions)) {
						t.Errorf("value: processed %d != %d", gotValue.Processed, len(ds.actions))
					}
					if gotValue.Partial {
						t.Errorf("value: unexpected partial flag with all shards up")
					}

					// window: min window start across shards, total count.
					wantWS := refs[0].WindowStart()
					for _, ref := range refs[1:] {
						if ws := ref.WindowStart(); ws < wantWS {
							wantWS = ws
						}
					}
					gotWin, err := c.client.Window(ctx, "default")
					if err != nil {
						t.Fatal(err)
					}
					if gotWin.WindowStart != wantWS || gotWin.Processed != int64(len(ds.actions)) {
						t.Errorf("window: got (%d,%d) want (%d,%d)",
							gotWin.WindowStart, gotWin.Processed, wantWS, len(ds.actions))
					}

					// checkpoints: starts union ascending, values summed per
					// start.
					wantCps := map[sim.ActionID]float64{}
					for _, ref := range refs {
						starts, values := ref.CheckpointStarts(), ref.CheckpointValues()
						for i, s := range starts {
							wantCps[s] += values[i]
						}
					}
					wantStarts := make([]sim.ActionID, 0, len(wantCps))
					for s := range wantCps {
						wantStarts = append(wantStarts, s)
					}
					sort.Slice(wantStarts, func(i, j int) bool { return wantStarts[i] < wantStarts[j] })
					gotCps, err := c.client.Checkpoints(ctx, "default")
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(gotCps.Starts, wantStarts) {
						t.Errorf("checkpoints: starts %v != %v", gotCps.Starts, wantStarts)
					}
					for i, s := range gotCps.Starts {
						if gotCps.Values[i] != wantCps[s] {
							t.Errorf("checkpoints: value at start %d: %v != %v", s, gotCps.Values[i], wantCps[s])
						}
					}

					// stats: additive counters, processed-weighted mean
					// checkpoint count.
					var wantStats api.StatsResponse
					var weighted float64
					for i, ref := range refs {
						st := ref.Stats()
						if i == 0 {
							wantStats.Stats.Framework = st.Framework
							wantStats.Stats.Oracle = st.Oracle
						}
						wantStats.Stats.Processed += st.Processed
						wantStats.Stats.Checkpoints += st.Checkpoints
						wantStats.Stats.ElementsFed += st.ElementsFed
						weighted += st.AvgCheckpoints * float64(st.Processed)
					}
					wantStats.Stats.AvgCheckpoints = weighted / float64(wantStats.Stats.Processed)
					gotStats, err := c.client.Stats(ctx, "default")
					if err != nil {
						t.Fatal(err)
					}
					if gotStats.Stats != wantStats.Stats {
						t.Errorf("stats: %+v != %+v", gotStats.Stats, wantStats.Stats)
					}
				})
			}
		}
	}
}

// TestClusterSeedQuality is invariant (b): the seed set the router picks —
// shard-local sieve candidate pools, one exact greedy re-score at the
// router — is within fixed ε of the single-tracker sieve objective on
// every dataset and both frameworks. The comparison is apples-to-apples:
// the merged seed set is re-evaluated in the single tracker's (unbroken)
// influence universe, so ε measures only selection loss — candidates the
// per-shard sieves failed to surface — not the cascade-splitting inherent
// to partitioned measurement (that structural gap is documented in
// ARCHITECTURE.md and visible in the logged partitioned-universe value).
func TestClusterSeedQuality(t *testing.T) {
	const epsilon = 0.25
	for _, ds := range clusterDatasets() {
		for _, fw := range []sim.Framework{sim.SIC, sim.IC} {
			t.Run(fmt.Sprintf("%s/%v", ds.name, fw), func(t *testing.T) {
				spec := clusterSpec(fw)
				c := newCluster(t, 4, spec)
				ingestAll(t, c.client, ds.actions, 500)

				single, err := sim.New(spec.Config())
				if err != nil {
					t.Fatal(err)
				}
				defer single.Close()
				if err := single.ProcessAll(ds.actions); err != nil {
					t.Fatal(err)
				}
				singleValue := single.Value()

				got, err := c.client.Seeds(context.Background(), "default")
				if err != nil {
					t.Fatal(err)
				}
				if len(got.Seeds) == 0 {
					t.Fatalf("router returned no seeds")
				}
				if len(got.Seeds) > spec.K {
					t.Fatalf("router returned %d seeds > budget %d", len(got.Seeds), spec.K)
				}

				// Re-evaluate the merged seeds against the single tracker's
				// unbroken influence sets: the coverage they would achieve
				// had the whole stream been tracked in one process.
				covered := map[sim.UserID]struct{}{}
				for _, u := range got.Seeds {
					for _, v := range single.InfluenceSet(u) {
						covered[v] = struct{}{}
					}
				}
				global := float64(len(covered))
				t.Logf("merged seeds: global objective %.1f vs single-tracker sieve %.1f (ratio %.3f; partitioned-universe value %.1f)",
					global, singleValue, global/singleValue, got.Value)
				if global < (1-epsilon)*singleValue {
					t.Errorf("merged seeds' global objective %.1f < (1-%.2f)·%.1f", global, epsilon, singleValue)
				}
			})
		}
	}
}

// TestClusterQueryPushdown checks the /query scatter: the plan runs on
// every shard, and the router re-applies the trailing topk on the merged
// stream. The expectation is computed by the same deterministic recipe the
// router documents: per-shard answers concatenated in shard index order,
// stably re-sorted, truncated to K.
func TestClusterQueryPushdown(t *testing.T) {
	ds := clusterDatasets("Reddit")[0]
	spec := clusterSpec(sim.SIC)
	c := newCluster(t, 3, spec)
	ingestAll(t, c.client, ds.actions, 500)

	req := api.QueryRequest{Plan: query.Plan{
		Scan: "seeds",
		Ops:  []query.Op{{Op: "topk", Col: "influence", K: 4, Desc: true}},
	}}
	ctx := context.Background()

	var want []query.Row
	var cols []string
	for _, ts := range c.shards {
		sc := api.NewClient(ts.URL)
		resp, err := sc.Query(ctx, "default", req)
		if err != nil {
			t.Fatal(err)
		}
		cols = resp.Columns
		want = append(want, resp.Rows...)
	}
	ci := -1
	for i, col := range cols {
		if col == "influence" {
			ci = i
		}
	}
	if ci < 0 {
		t.Fatalf("no influence column in %v", cols)
	}
	sort.SliceStable(want, func(a, b int) bool { return want[a][ci].Compare(want[b][ci]) > 0 })
	if len(want) > 4 {
		want = want[:4]
	}

	got, err := c.client.Query(ctx, "default", req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Rows, want) {
		t.Errorf("merged topk rows:\n got %v\nwant %v", got.Rows, want)
	}
	if got.Partial {
		t.Errorf("unexpected partial query result")
	}
}

// TestClusterInfluenceRouting checks single-owner routing: the router's
// /influence answer for any user equals the owning shard's own answer (the
// user's whole sub-stream lives there), and unknown trackers 404 through
// the merged path.
func TestClusterInfluenceRouting(t *testing.T) {
	ds := clusterDatasets("SYN-O")[0]
	spec := clusterSpec(sim.SIC)
	c := newCluster(t, 3, spec)
	ingestAll(t, c.client, ds.actions, 500)
	ctx := context.Background()

	seen := 0
	for u := sim.UserID(0); u < 500 && seen < 25; u++ {
		owner := c.router.Ring().ShardForID(u)
		direct := api.NewClient(c.shards[owner].URL)
		want, err := direct.Influence(ctx, "default", fmt.Sprint(u))
		if err != nil {
			t.Fatal(err)
		}
		if want.Count == 0 {
			continue
		}
		seen++
		got, err := c.client.Influence(ctx, "default", fmt.Sprint(u))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("user %d: router %+v != shard %d %+v", u, got, owner, want)
		}
	}
	if seen == 0 {
		t.Fatal("no user with a non-empty influence set found")
	}

	if _, err := c.client.Value(ctx, "nope"); err == nil {
		t.Fatal("expected 404 for unknown tracker")
	} else if apiErr, ok := err.(*api.Error); !ok || apiErr.Code != http.StatusNotFound {
		t.Fatalf("unknown tracker: got %v, want 404", err)
	}
}

// TestClusterHammer is invariant (c): concurrent ingest and merged reads
// against a live cluster, run under -race in CI. Correctness here is "no
// read errors, no torn counts": the final processed total must equal the
// ingested total on every read path.
func TestClusterHammer(t *testing.T) {
	ds := clusterDatasets("Twitter")[0]
	spec := clusterSpec(sim.SIC)
	c := newCluster(t, 2, spec)
	ctx := context.Background()

	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				var err error
				switch r % 4 {
				case 0:
					_, err = c.client.Seeds(ctx, "default")
				case 1:
					_, err = c.client.Value(ctx, "default")
				case 2:
					_, err = c.client.Stats(ctx, "default")
				case 3:
					_, err = c.client.Query(ctx, "default", api.QueryRequest{Plan: query.Plan{
						Scan: "seeds",
						Ops:  []query.Op{{Op: "topk", Col: "influence", K: 3, Desc: true}},
					}})
				}
				if err != nil {
					select {
					case <-done: // reads racing teardown are not failures
						return
					default:
						t.Errorf("reader %d: %v", r, err)
						return
					}
				}
			}
		}(r)
	}
	ingestAll(t, c.client, ds.actions, 100)
	close(done)
	wg.Wait()

	win, err := c.client.Window(ctx, "default")
	if err != nil {
		t.Fatal(err)
	}
	if win.Processed != int64(len(ds.actions)) {
		t.Fatalf("processed %d != ingested %d", win.Processed, len(ds.actions))
	}
}

// proxy is a TCP pass-through in front of one shard that can be killed and
// revived on the same port — the shard-failure lever of invariant (d).
type proxy struct {
	t      *testing.T
	target string
	addr   string

	mu    sync.Mutex
	ln    net.Listener
	conns map[net.Conn]struct{}
}

func newProxy(t *testing.T, target string) *proxy {
	p := &proxy{t: t, target: strings.TrimPrefix(target, "http://"), conns: map[net.Conn]struct{}{}}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p.addr = ln.Addr().String()
	p.serve(ln)
	t.Cleanup(p.stop)
	return p
}

func (p *proxy) serve(ln net.Listener) {
	p.mu.Lock()
	p.ln = ln
	p.mu.Unlock()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", p.target)
			if err != nil {
				c.Close()
				continue
			}
			p.mu.Lock()
			p.conns[c] = struct{}{}
			p.conns[up] = struct{}{}
			p.mu.Unlock()
			go func() { _, _ = io.Copy(up, c); up.Close() }()
			go func() { _, _ = io.Copy(c, up); c.Close() }()
		}
	}()
}

// stop kills the listener and every live connection: from the router's
// point of view the shard is dead (connection refused / reset).
func (p *proxy) stop() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.ln != nil {
		p.ln.Close()
		p.ln = nil
	}
	for c := range p.conns {
		c.Close()
		delete(p.conns, c)
	}
}

// restart re-listens on the same port.
func (p *proxy) restart() {
	ln, err := net.Listen("tcp", p.addr)
	if err != nil {
		p.t.Fatalf("proxy restart: %v", err)
	}
	p.serve(ln)
}

// TestClusterShardDownPartial is invariant (d): killing one shard flags
// merged reads as partial (X-Partial header + DTO field) without taking
// the router down, ingest owned by the dead shard is refused retryably,
// and the background probe restores full answers once the shard returns.
func TestClusterShardDownPartial(t *testing.T) {
	ds := clusterDatasets("SYN-N")[0]
	spec := clusterSpec(sim.SIC)

	// Hand-build the cluster so shard 0 sits behind a killable proxy.
	var shardURLs []string
	for i := 0; i < 3; i++ {
		reg := server.NewRegistry()
		if _, err := reg.Add("default", spec); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(server.New(reg))
		t.Cleanup(ts.Close)
		t.Cleanup(func() { _ = reg.Close() })
		shardURLs = append(shardURLs, ts.URL)
	}
	px := newProxy(t, shardURLs[0])
	addrs := append([]string{"http://" + px.addr}, shardURLs[1:]...)
	router.SetProbeInterval(t, 50*time.Millisecond)
	rt, err := router.New(addrs, router.Options{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt)
	t.Cleanup(front.Close)
	client := api.NewClient(front.URL)

	ingestAll(t, client, ds.actions, 500)
	ctx := context.Background()
	full, err := client.Value(ctx, "default")
	if err != nil {
		t.Fatal(err)
	}
	if full.Partial {
		t.Fatal("partial before any failure")
	}

	px.stop()

	// First read after the kill marks the shard down and goes partial.
	v, err := client.Value(ctx, "default")
	if err != nil {
		t.Fatalf("read with one shard down: %v", err)
	}
	if !v.Partial {
		t.Errorf("value not flagged partial with shard 0 dead")
	}
	if v.Value >= full.Value {
		t.Errorf("partial value %v not below full value %v", v.Value, full.Value)
	}

	// The wire carries the flag too: X-Partial header on the raw response.
	raw, err := http.Get(front.URL + "/v1/trackers/default/seeds")
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Body.Close()
	if raw.Header.Get("X-Partial") != "true" {
		t.Errorf("X-Partial header = %q, want \"true\"", raw.Header.Get("X-Partial"))
	}
	var seeds api.SeedsResponse
	if err := json.NewDecoder(raw.Body).Decode(&seeds); err != nil {
		t.Fatal(err)
	}
	if !seeds.Partial || len(seeds.Seeds) == 0 {
		t.Errorf("partial seeds: partial=%v seeds=%d, want flagged and non-empty", seeds.Partial, len(seeds.Seeds))
	}

	// Cluster health: router is up, exactly one shard unhealthy.
	ch, err := client.ClusterHealth(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ch.Status != "degraded" || ch.Healthy != 2 {
		t.Errorf("cluster health: status=%q healthy=%d, want degraded/2", ch.Status, ch.Healthy)
	}

	// Ingest that needs the dead shard is refused retryably; a batch owned
	// entirely by live shards still lands.
	var deadUser, liveUser sim.UserID
	foundDead, foundLive := false, false
	for u := sim.UserID(1000); u < 2000; u++ {
		switch rt.Ring().ShardForID(u) {
		case 0:
			if !foundDead {
				deadUser, foundDead = u, true
			}
		default:
			if !foundLive {
				liveUser, foundLive = u, true
			}
		}
		if foundDead && foundLive {
			break
		}
	}
	next := ds.actions[len(ds.actions)-1].ID
	_, err = client.Ingest(ctx, "default", []sim.Action{{ID: next + 1, User: deadUser, Parent: sim.NoParent}})
	if apiErr, ok := err.(*api.Error); !ok || apiErr.Code != http.StatusServiceUnavailable {
		t.Errorf("ingest to dead shard: got %v, want 503", err)
	}
	if _, err := client.Ingest(ctx, "default", []sim.Action{{ID: next + 2, User: liveUser, Parent: sim.NoParent}}); err != nil {
		t.Errorf("ingest to live shards: %v", err)
	}

	// Revive the shard: the background probe must mark it up and reads go
	// back to full, un-flagged answers.
	px.restart()
	deadline := time.Now().Add(5 * time.Second)
	for {
		v, err := client.Value(ctx, "default")
		if err == nil && !v.Partial {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("shard never rejoined: last value=%+v err=%v", v, err)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// TestClusterNameMode checks the name-mode path end to end: ingest routes
// by raw external name (pre-intern), merged seeds come back with names,
// and the additive value identity holds against reference trackers fed the
// name-partitioned sub-streams through their own intern tables.
func TestClusterNameMode(t *testing.T) {
	ds := clusterDatasets("Reddit")[0]
	spec := clusterSpec(sim.SIC)
	spec.Names = true
	c := newCluster(t, 3, spec)
	ctx := context.Background()

	named := make([]api.NamedAction, len(ds.actions))
	for i, a := range ds.actions {
		named[i] = api.NamedAction{ID: a.ID, User: fmt.Sprintf("user-%d", a.User), Parent: a.Parent}
	}
	for lo := 0; lo < len(named); lo += 500 {
		hi := lo + 500
		if hi > len(named) {
			hi = len(named)
		}
		if _, err := c.client.IngestNamed(ctx, "default", named[lo:hi]); err != nil {
			t.Fatalf("ingest [%d,%d): %v", lo, hi, err)
		}
	}

	// Reference: partition by raw name, intern per shard in arrival order,
	// run standalone trackers.
	nShards := c.router.Ring().Shards()
	wantValue := 0.0
	for i := 0; i < nShards; i++ {
		tr, err := sim.New(spec.Config())
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		ids := map[string]sim.UserID{}
		for _, a := range named {
			if c.router.Ring().ShardForName(a.User) != i {
				continue
			}
			id, ok := ids[a.User]
			if !ok {
				id = sim.UserID(len(ids))
				ids[a.User] = id
			}
			if err := tr.Process(sim.Action{ID: a.ID, User: id, Parent: a.Parent}); err != nil {
				t.Fatal(err)
			}
		}
		wantValue += tr.Value()
	}
	got, err := c.client.Value(ctx, "default")
	if err != nil {
		t.Fatal(err)
	}
	if got.Value != wantValue {
		t.Errorf("name-mode value: router %v != reference sum %v", got.Value, wantValue)
	}

	seeds, err := c.client.Seeds(ctx, "default")
	if err != nil {
		t.Fatal(err)
	}
	if len(seeds.Seeds) == 0 || len(seeds.Names) != len(seeds.Seeds) {
		t.Fatalf("name-mode seeds: %d seeds, %d names", len(seeds.Seeds), len(seeds.Names))
	}
	for _, nm := range seeds.Names {
		if !strings.HasPrefix(nm, "user-") {
			t.Errorf("seed name %q does not look like an external name", nm)
		}
	}

	// Influence routes to the name's owning shard.
	name := seeds.Names[0]
	inf, err := c.client.Influence(ctx, "default", name)
	if err != nil {
		t.Fatal(err)
	}
	if inf.Name != name || inf.Count == 0 {
		t.Errorf("influence(%q): name=%q count=%d", name, inf.Name, inf.Count)
	}
}

package router_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/api"
	"repro/internal/router"
	"repro/internal/server"
	"repro/query"
	"repro/sim"
)

// fetch returns the raw body of one request, which must answer 200.
func fetch(t *testing.T, method, url, body string) (http.Header, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s %s: %s: %s", method, url, resp.Status, raw)
	}
	return resp.Header, raw
}

// mergedReads is the router's table of merged reads as a client addresses
// them. A route added to the router belongs here too: every test below that
// ranges over it then covers the new route.
var mergedReads = []struct {
	name, method, path, body string
	// served by a single shard in another shape (/seeds: the shard's own sieve
	// answer, not a merge of rankings), so not part of the identity below.
	differsFromShard bool
}{
	{"list", "GET", "/v1/trackers", "", false},
	{"seeds", "GET", "/v1/trackers/default/seeds", "", true},
	{"candidates", "GET", "/v1/trackers/default/candidates", "", false},
	{"value", "GET", "/v1/trackers/default/value", "", false},
	{"window", "GET", "/v1/trackers/default/window", "", false},
	{"checkpoints", "GET", "/v1/trackers/default/checkpoints", "", false},
	{"stats", "GET", "/v1/trackers/default/stats", "", false},
	{"query", "POST", "/v1/trackers/default/query",
		`{"plan":{"scan":"seeds","ops":[{"op":"topk","col":"influence","k":7,"desc":true},{"op":"limit","n":5}]}}`, false},
}

// deadAddr returns the base URL of a port nothing listens on.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return "http://" + ln.Addr().String()
}

// TestNoPartsNoMerge: the merge functions may index parts[0] because no merge
// runs on an empty part list — with no shard answering, every merged read is
// gather's 503.
func TestNoPartsNoMerge(t *testing.T) {
	rt, err := router.New([]string{deadAddr(t), deadAddr(t)}, router.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	for _, rd := range mergedReads {
		w := httptest.NewRecorder()
		rt.ServeHTTP(w, httptest.NewRequest(rd.method, rd.path, strings.NewReader(rd.body)))
		if w.Code != http.StatusServiceUnavailable || !strings.Contains(w.Body.String(), "no shard reachable") {
			t.Errorf("%s %s with every shard down: %d %s", rd.method, rd.path, w.Code, w.Body)
		}
	}
}

// TestMergeOfOneIsIdentity: a fold over one part adds nothing. A router over
// a single shard answers every merged read with the shard's own bytes — /stats
// to one ulp of avg_checkpoints, which the router recomputes as a
// processed-weighted mean.
func TestMergeOfOneIsIdentity(t *testing.T) {
	ds := clusterDatasets("Reddit")[0]
	c := newCluster(t, 1, clusterSpec(sim.SIC))
	ingestAll(t, c.client, ds.actions, 500)
	for _, rd := range mergedReads {
		if rd.differsFromShard {
			continue
		}
		t.Run(rd.name, func(t *testing.T) {
			_, want := fetch(t, rd.method, c.shards[0].URL+rd.path, rd.body)
			hdr, got := fetch(t, rd.method, c.front.URL+rd.path, rd.body)
			if hdr.Get("X-Partial") != "" {
				t.Errorf("X-Partial = %q with every shard up", hdr.Get("X-Partial"))
			}
			if rd.name == "stats" {
				var g, w api.StatsResponse
				if err := json.Unmarshal(got, &g); err != nil {
					t.Fatal(err)
				}
				if err := json.Unmarshal(want, &w); err != nil {
					t.Fatal(err)
				}
				a, b := g.Stats.AvgCheckpoints, w.Stats.AvgCheckpoints
				if a != b && a != math.Nextafter(b, a) {
					t.Errorf("avg_checkpoints: router %v, shard %v: more than one ulp apart", a, b)
				}
				g.Stats.AvgCheckpoints = b
				if g != w {
					t.Errorf("router %+v\n shard %+v", g, w)
				}
				return
			}
			if !bytes.Equal(got, want) {
				t.Errorf("router %s\n shard %s", got, want)
			}
		})
	}
}

// downCluster is a two-shard cluster whose shard 1 sits behind a proxy the
// test can stop, with a probe too slow to bring it back.
func downCluster(t *testing.T, spec api.Spec) (c *cluster, shard1 *proxy) {
	t.Helper()
	c = &cluster{}
	for i := 0; i < 2; i++ {
		reg := server.NewRegistry()
		if _, err := reg.Add("default", spec); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(server.New(reg))
		t.Cleanup(ts.Close)
		t.Cleanup(func() { _ = reg.Close() })
		c.shards, c.regs = append(c.shards, ts), append(c.regs, reg)
	}
	shard1 = newProxy(t, c.shards[1].URL)
	router.SetProbeInterval(t, time.Hour)
	rt, err := router.New([]string{c.shards[0].URL, "http://" + shard1.addr},
		router.Options{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	c.router = rt
	c.front = httptest.NewServer(rt)
	t.Cleanup(c.front.Close)
	c.client = api.NewClient(c.front.URL)
	return c, shard1
}

// TestEveryMergedReadSaysPartial: with a shard down, every merged read flags
// its answer twice — the X-Partial header and the DTO's own partial field.
func TestEveryMergedReadSaysPartial(t *testing.T) {
	ds := clusterDatasets("SYN-O")[0]
	c, shard1 := downCluster(t, clusterSpec(sim.SIC))
	ingestAll(t, c.client, ds.actions, 500)
	shard1.stop()
	for _, rd := range mergedReads {
		t.Run(rd.name, func(t *testing.T) {
			hdr, raw := fetch(t, rd.method, c.front.URL+rd.path, rd.body)
			var dto struct {
				Partial bool `json:"partial"`
			}
			if err := json.Unmarshal(raw, &dto); err != nil {
				t.Fatal(err)
			}
			if hdr.Get("X-Partial") != "true" || !dto.Partial {
				t.Errorf("X-Partial = %q, body partial = %v with shard 1 down", hdr.Get("X-Partial"), dto.Partial)
			}
		})
	}
}

// TestEveryMergedReadRefreshesProcessed: an ingest that cannot reach an idle
// shard reports that shard's processed count as of the router's last contact,
// and every merged read that carries the count is such a contact. Actions go
// straight into shard 1, behind the router's back; one read through the
// router; shard 1 goes down; a batch shard 0 owns must still be acknowledged
// with a total that includes them.
func TestEveryMergedReadRefreshesProcessed(t *testing.T) {
	ctx := context.Background()
	for _, rd := range mergedReads {
		if rd.name == "checkpoints" {
			continue // the one merged DTO without a processed count
		}
		t.Run(rd.name, func(t *testing.T) {
			c, shard1 := downCluster(t, api.Spec{K: 3, Window: 100})
			var owned0 sim.UserID
			for c.router.Ring().ShardForID(owned0) != 0 {
				owned0++
			}
			direct := []sim.Action{{ID: 1, User: 7, Parent: sim.NoParent}, {ID: 2, User: 8, Parent: 1}, {ID: 3, User: 7, Parent: 2}}
			if _, err := api.NewClient(c.shards[1].URL).Ingest(ctx, "default", direct); err != nil {
				t.Fatal(err)
			}
			fetch(t, rd.method, c.front.URL+rd.path, rd.body)
			shard1.stop()
			ack, err := c.client.Ingest(ctx, "default", []sim.Action{{ID: 10, User: owned0, Parent: sim.NoParent}})
			if err != nil {
				t.Fatal(err)
			}
			if want := int64(len(direct) + 1); ack.Processed != want {
				t.Errorf("processed = %d after a %s read saw shard 1 at %d, want %d", ack.Processed, rd.name, len(direct), want)
			}
		})
	}
}

// TestWindowStartIgnoresEmptyShards: a tracker that has processed nothing
// reports a window start of −N, which is not a window. The merged window start
// is the shard's that has one, whichever index the empty shard sits at.
func TestWindowStartIgnoresEmptyShards(t *testing.T) {
	ctx := context.Background()
	for empty := 0; empty < 2; empty++ {
		c := newCluster(t, 2, api.Spec{K: 3, Window: 100})
		var u sim.UserID
		for c.router.Ring().ShardForID(u) == empty {
			u++
		}
		if _, err := c.client.Ingest(ctx, "default", []sim.Action{{ID: 5, User: u, Parent: sim.NoParent}, {ID: 6, User: u, Parent: 5}}); err != nil {
			t.Fatal(err)
		}
		own, err := api.NewClient(c.shards[1-empty].URL).Window(ctx, "default")
		if err != nil {
			t.Fatal(err)
		}
		idle, err := api.NewClient(c.shards[empty].URL).Window(ctx, "default")
		if err != nil {
			t.Fatal(err)
		}
		if own.WindowStart != 5 || idle.WindowStart != -100 || idle.Processed != 0 {
			t.Fatalf("shards report window starts %d and %d (empty one processed %d): not the case under test",
				own.WindowStart, idle.WindowStart, idle.Processed)
		}
		got := map[string]sim.ActionID{}
		if w, err := c.client.Window(ctx, "default"); err != nil {
			t.Fatal(err)
		} else {
			got["window"] = w.WindowStart
		}
		if s, err := c.client.Seeds(ctx, "default"); err != nil {
			t.Fatal(err)
		} else {
			got["seeds"] = s.WindowStart
		}
		if cand, err := c.client.Candidates(ctx, "default"); err != nil {
			t.Fatal(err)
		} else {
			got["candidates"] = cand.WindowStart
		}
		if q, err := c.client.Query(ctx, "default", api.QueryRequest{Plan: query.Plan{Scan: "seeds"}}); err != nil {
			t.Fatal(err)
		} else {
			got["query"] = q.WindowStart
		}
		for route, ws := range got {
			if ws != own.WindowStart {
				t.Errorf("empty shard at index %d: merged /%s window_start = %d, want %d", empty, route, ws, own.WindowStart)
			}
		}
	}
}

package router_test

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/api"
	"repro/internal/router"
	"repro/internal/server"
	"repro/sim"
)

// TestErrorEnvelopeBytes pins what a client sees on a refused request — the
// status, the Retry-After header and the body, byte for byte — from a
// simserve and from a simrouter in front of it. The literals were captured
// from the tree before the envelope moved into package api (PR 17), the two
// draining-tracker 503s from the tree before PR 19 took away the refused
// pseudo-state they used to show; SHARD and ADDR stand for a shard's base URL
// and host:port where a message names them.
//
// The server's own body cap and queue are not settable from this package:
// its 413 comes from a 1 KiB http.MaxBytesHandler in front of it (the
// server reports the limit of the reader that tripped), and its 429 from
// filling its real ingest queue behind a wedged gate and waiting out the
// real enqueue deadline. The router's shard is that server behind a stub
// that answers default's ingest and influence with the server's overload
// envelope, so the router's 429 pins see the shard's 429 at once.
func TestErrorEnvelopeBytes(t *testing.T) {
	reg := server.NewRegistry()
	tk, err := reg.Add("default", api.Spec{K: 2, Window: 100})
	if err != nil {
		t.Fatal(err)
	}
	// A tracker that has begun draining: still registered, ingest gets 503.
	draining, err := reg.Add("draining", api.Spec{K: 2, Window: 100})
	if err != nil {
		t.Fatal(err)
	}
	if err := draining.Close(); err != nil {
		t.Fatal(err)
	}
	srv := server.New(reg)
	shard := httptest.NewServer(http.MaxBytesHandler(srv, 1<<10))
	t.Cleanup(shard.Close)
	t.Cleanup(func() { _ = reg.Close() })
	var overloaded atomic.Bool
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/trackers/default/actions", "/v1/trackers/default/influence":
			if overloaded.Load() {
				(&api.Error{Code: http.StatusTooManyRequests, Message: server.ErrOverloaded.Error(), RetryAfter: time.Second}).Write(w)
				return
			}
		}
		srv.ServeHTTP(w, r)
	}))
	t.Cleanup(stub.Close)

	router.CapBody(t, 1<<10)
	rt, err := router.New([]string{stub.URL}, router.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt)
	t.Cleanup(front.Close)

	// A router whose only shard refuses connections.
	dead := deadAddr(t)
	lonely, err := router.New([]string{dead}, router.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lonely.Close)
	lonelyFront := httptest.NewServer(lonely)
	t.Cleanup(lonelyFront.Close)

	if _, err := api.NewClient(front.URL).Ingest(context.Background(), "default",
		[]sim.Action{{ID: 5, User: 1, Parent: sim.NoParent}}); err != nil {
		t.Fatal(err)
	}
	overloaded.Store(true)
	// Wedge the shard's gate and fill its queue, so whatever still has to
	// wait for the gate is shed with 429.
	release := make(chan struct{})
	parked := make(chan struct{})
	loopDone := make(chan error, 1)
	go func() {
		loopDone <- tk.Query(context.Background(), func(*sim.Tracker) {
			close(parked)
			<-release
		})
	}()
	<-parked
	_, capacity := tk.QueueDepth()
	queued := make(chan error, capacity)
	for range capacity {
		go func() { queued <- tk.Query(context.Background(), func(*sim.Tracker) {}) }()
	}
	t.Cleanup(func() {
		close(release)
		if err := <-loopDone; err != nil {
			t.Errorf("parked closure: %v", err)
		}
		for range capacity {
			if err := <-queued; err != nil {
				t.Errorf("a command that filled the queue: %v", err)
			}
		}
	})
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		depth, capacity := tk.QueueDepth()
		if depth == capacity {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue holds %d of %d: not full", depth, capacity)
		}
	}

	big := strings.Repeat(`{"id":9,"user":1}`+"\n", 200) // > 1 KiB
	one := `{"id":9,"user":1}` + "\n"
	cases := []struct {
		name, base, method, path, body string
		status                         int
		retryAfter, want               string
	}{
		{"server 400 parameter", shard.URL, "GET", "/v1/trackers/default/influence?user=bogus", "", 400, "", `{"error":"bad or missing user parameter \"bogus\"","code":400}`},
		{"server 400 query body", shard.URL, "POST", "/v1/trackers/default/query", `{"plan":{"scan":"seeds"},"limit":-1}`, 400, "", `{"error":"bad query request: negative limit -1","code":400}`},
		{"server 404", shard.URL, "GET", "/v1/trackers/nope/value", "", 404, "", `{"error":"unknown tracker \"nope\"","code":404}`},
		{"server 413", shard.URL, "POST", "/v1/trackers/default/actions", big, 413, "", `{"error":"body exceeds 1024 bytes","code":413}`},
		{"server 429", shard.URL, "POST", "/v1/trackers/default/actions", one, 429, "1", `{"error":"server: ingest queue overloaded","code":429}`},
		{"server 503", shard.URL, "POST", "/v1/trackers/draining/actions", one, 503, "", `{"error":"server: tracker is draining","code":503}`},
		{"router 400 parameter", front.URL, "GET", "/v1/trackers/default/influence?user=bogus", "", 400, "", `{"error":"bad or missing user parameter \"bogus\"","code":400}`},
		{"router 400 query body", front.URL, "POST", "/v1/trackers/default/query", `{"plan":{"scan":"seeds"},"limit":-1}`, 400, "", `{"error":"bad query request: negative limit -1","code":400}`},
		{"router 400 from the shards", front.URL, "POST", "/v1/trackers/default/query", `{"plan":{"scan":"bogus"}}`, 400, "", `{"error":"query: unknown scan \"bogus\" (want seeds, checkpoints or influence)","code":400}`},
		{"router 404 merged read", front.URL, "GET", "/v1/trackers/nope/value", "", 404, "", `{"error":"unknown tracker \"nope\"","code":404}`},
		{"router 404 ingest", front.URL, "POST", "/v1/trackers/nope/actions", one, 404, "", `{"error":"unknown tracker \"nope\"","code":404}`},
		{"router 413", front.URL, "POST", "/v1/trackers/default/actions", big, 413, "", `{"error":"body exceeds 1024 bytes","code":413}`},
		{"router 429 ingest", front.URL, "POST", "/v1/trackers/default/actions", one, 429, "1", `{"error":"shards [SHARD] failed (server: ingest queue overloaded); shards [] applied their sub-batches","code":429}`},
		{"router 429 owner read", front.URL, "GET", "/v1/trackers/default/influence?user=77", "", 429, "1", `{"error":"server: ingest queue overloaded","code":429}`},
		{"router 503 from the shards", front.URL, "POST", "/v1/trackers/draining/actions", one, 503, "1", `{"error":"shards [SHARD] failed (server: tracker is draining); shards [] applied their sub-batches","code":503}`},
		{"router 503 no shard", lonelyFront.URL, "GET", "/v1/trackers/default/value", "", 503, "", `{"error":"no shard reachable","code":503}`},
		{"router 503 no shard to resolve a spec", lonelyFront.URL, "POST", "/v1/trackers/default/actions", one, 503, "", `{"error":"resolving tracker \"default\": api: GET /v1/trackers: Get \"SHARD/v1/trackers\": dial tcp ADDR: connect: connection refused","code":503}`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel() // the 429s ride out the enqueue deadline or the router's retries
			req, err := http.NewRequest(c.method, c.base+c.path, strings.NewReader(c.body))
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
			body := strings.NewReplacer(stub.URL, "SHARD", dead, "SHARD", strings.TrimPrefix(dead, "http://"), "ADDR").Replace(string(raw))
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Errorf("Content-Type = %q", ct)
			}
			if resp.StatusCode != c.status || resp.Header.Get("Retry-After") != c.retryAfter || body != c.want+"\n" {
				t.Errorf("got  %d, Retry-After %q, %q\nwant %d, Retry-After %q, %q",
					resp.StatusCode, resp.Header.Get("Retry-After"), body, c.status, c.retryAfter, c.want)
			}
		})
	}
}

package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/api"
	"repro/internal/dataio"
	"repro/internal/gen"
	"repro/internal/router"
	"repro/internal/server"
	"repro/sim"
)

// serve starts a server with one tracker, "default", built from spec, and
// returns a client for it plus the number of ingest POSTs it has received.
func serve(t *testing.T, spec api.Spec) (*api.Client, *atomic.Int64) {
	t.Helper()
	reg := server.NewRegistry()
	if _, err := reg.Add("default", spec); err != nil {
		t.Fatal(err)
	}
	srv := server.New(reg)
	posts := new(atomic.Int64)
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/actions") {
			posts.Add(1)
		}
		srv.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	return api.NewClient(hs.URL), posts
}

var testSpec = api.Spec{K: 5, Window: 1000}

func testStream() []sim.Action { return gen.Stream(gen.SynO(500, 2500, 1000, 1)) }

// writeFile writes data to a fresh file and returns its path.
func writeFile(t *testing.T, data []byte) string {
	t.Helper()
	path := t.TempDir() + "/actions"
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// ingestFile runs `simctl ingest default <path>`.
func ingestFile(c *api.Client, path string) (api.IngestResponse, error) {
	out, err := run(context.Background(), c, "ingest", []string{"default", path})
	if err != nil {
		return api.IngestResponse{}, err
	}
	return out.(api.IngestResponse), nil
}

// checkServed asserts that the served seeds and value are those of a
// tracker that applied actions in simctl's chunks, one ProcessAll each.
func checkServed(t *testing.T, c *api.Client, actions []sim.Action) {
	t.Helper()
	ref, err := sim.New(testSpec.Config())
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	for i := 0; i < len(actions); i += ingestChunk {
		if err := ref.ProcessAll(actions[i:min(i+ingestChunk, len(actions))]); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	seeds, err := c.Seeds(ctx, "default")
	if err != nil {
		t.Fatal(err)
	}
	value, err := c.Value(ctx, "default")
	if err != nil {
		t.Fatal(err)
	}
	if seeds.Processed != int64(len(actions)) || !reflect.DeepEqual(seeds.Seeds, ref.Seeds()) || value.Value != ref.Value() {
		t.Fatalf("served processed=%d seeds=%v value=%g, want processed=%d seeds=%v value=%g",
			seeds.Processed, seeds.Seeds, value.Value, len(actions), ref.Seeds(), ref.Value())
	}
}

// TestIngestChunks: a stream arrives in 1000-action POSTs, and the tracker
// answers as if it had applied those chunks itself.
func TestIngestChunks(t *testing.T) {
	t.Run("ndjson", func(t *testing.T) {
		c, posts := serve(t, testSpec)
		actions := testStream()
		var buf bytes.Buffer
		if err := dataio.WriteNDJSON(&buf, actions); err != nil {
			t.Fatal(err)
		}
		resp, err := ingestFile(c, writeFile(t, buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if resp != (api.IngestResponse{Accepted: 2500, Processed: 2500}) || posts.Load() != 3 {
			t.Fatalf("response %+v over %d POSTs, want 2500/2500 over 3", resp, posts.Load())
		}
		checkServed(t, c, actions)
	})
}

// TestIngestNames: simctl reads the tracker's name mode from its listed
// spec, and name-mode NDJSON is interned by the server in order of first
// appearance, so its seeds are the numeric stream's, renumbered.
func TestIngestNames(t *testing.T) {
	spec := testSpec
	spec.Names = true
	c, posts := serve(t, spec)
	actions := testStream()
	named := make([]api.NamedAction, len(actions))
	dense := make([]sim.Action, len(actions))
	ids := map[sim.UserID]sim.UserID{}
	for i, a := range actions {
		named[i] = api.NamedAction{ID: a.ID, User: fmt.Sprintf("u%d", a.User), Parent: a.Parent}
		if _, ok := ids[a.User]; !ok {
			ids[a.User] = sim.UserID(len(ids))
		}
		dense[i] = sim.Action{ID: a.ID, User: ids[a.User], Parent: a.Parent}
	}
	var buf bytes.Buffer
	if err := dataio.WriteNDJSONNamed(&buf, named); err != nil {
		t.Fatal(err)
	}
	resp, err := ingestFile(c, writeFile(t, buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if resp != (api.IngestResponse{Accepted: 2500, Processed: 2500}) || posts.Load() != 3 {
		t.Fatalf("response %+v over %d POSTs, want 2500/2500 over 3", resp, posts.Load())
	}
	checkServed(t, c, dense)
}

// TestIngestEmpty: input without actions is one empty POST, so the
// tracker's processed count is still printed.
func TestIngestEmpty(t *testing.T) {
	c, posts := serve(t, testSpec)
	resp, err := ingestFile(c, writeFile(t, []byte("\n")))
	if err != nil || resp != (api.IngestResponse{}) || posts.Load() != 1 {
		t.Fatalf("ingest = %+v, %v over %d POSTs, want 0/0 over 1", resp, err, posts.Load())
	}
}

// TestIngestDecodeError: a malformed record stops the ingest before its
// chunk is sent, the chunks before it stay applied, and the error names it.
func TestIngestDecodeError(t *testing.T) {
	c, posts := serve(t, testSpec)
	actions := testStream()
	var buf bytes.Buffer
	if err := dataio.WriteNDJSON(&buf, actions); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(buf.String(), "\n")
	lines[1699] = `{"id":1700,"user":"not-a-user"}` + "\n"
	_, err := ingestFile(c, writeFile(t, []byte(strings.Join(lines, ""))))
	if err == nil || !strings.Contains(err.Error(), "record 1700") {
		t.Fatalf("err = %v, want one naming record 1700", err)
	}
	if posts.Load() != 1 {
		t.Fatalf("%d POSTs, want 1: the broken chunk must not be sent", posts.Load())
	}
	checkServed(t, c, actions[:1000])
}

// TestIngestRejectsTSV: NDJSON is the one stream format, so a TSV file
// fails at its first record, before anything is POSTed — it is not read as
// zero actions.
func TestIngestRejectsTSV(t *testing.T) {
	c, posts := serve(t, testSpec)
	_, err := ingestFile(c, writeFile(t, []byte("1\t7\t-1\n2\t8\t1\n")))
	if err == nil || !strings.Contains(err.Error(), "record 1:") {
		t.Fatalf("err = %v, want one naming record 1", err)
	}
	if posts.Load() != 0 {
		t.Fatalf("%d POSTs, want 0", posts.Load())
	}
}

// TestIngestLiveFeed: actions written to an open pipe are served without
// waiting for a full chunk or for EOF.
func TestIngestLiveFeed(t *testing.T) {
	c, posts := serve(t, testSpec)
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdin := os.Stdin
	os.Stdin = pr
	t.Cleanup(func() { os.Stdin = stdin; pr.Close() })

	type result struct {
		resp api.IngestResponse
		err  error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := ingestFile(c, "-")
		done <- result{resp, err}
	}()
	if _, err := pw.WriteString(`{"id":1,"user":7}
{"id":2,"user":8,"parent":1}
{"id":3,"user":9}
`); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	deadline := time.Now().Add(time.Second)
	for {
		v, err := c.Value(ctx, "default")
		if err != nil {
			t.Fatal(err)
		}
		if v.Processed == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("processed = %d one second after the pipe was written, want 3", v.Processed)
		}
		time.Sleep(10 * time.Millisecond)
	}
	pw.Close()
	res := <-done
	if res.err != nil || res.resp != (api.IngestResponse{Accepted: 3, Processed: 3}) || posts.Load() != 1 {
		t.Fatalf("ingest = %+v, %v over %d POSTs, want 3/3 over 1", res.resp, res.err, posts.Load())
	}
}

// TestHealthPrintsTheBody: health prints the /v1/healthz body as it
// arrives, so a simrouter's per-shard answer needs no flag and loses no
// field, and a simserve's keeps its own.
func TestHealthPrintsTheBody(t *testing.T) {
	shard, _ := serve(t, testSpec)
	rt, err := router.New([]string{shard.BaseURL}, router.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt)
	t.Cleanup(front.Close)
	for _, tc := range []struct {
		name, addr string
		want       []string
	}{
		{"simserve", shard.BaseURL, []string{`"status": "ok"`, `"trackers": 1`, `"durable": false`}},
		{"simrouter", front.URL, []string{`"status": "ok"`, `"healthy": 1`, `"shards": [`, `"addr": "` + shard.BaseURL + `"`}},
	} {
		out, err := run(context.Background(), api.NewClient(tc.addr), "health", nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var buf bytes.Buffer
		if err := printJSON(&buf, out); err != nil {
			t.Fatal(err)
		}
		for _, w := range tc.want {
			if !strings.Contains(buf.String(), w) {
				t.Errorf("%s: health printed\n%s\nwant it to contain %s", tc.name, buf.String(), w)
			}
		}
	}
}

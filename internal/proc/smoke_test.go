//go:build smoke

package proc

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/api"
	"repro/query"
	"repro/sim"
)

// trackerFlags is the one tracker every test serves.
var trackerFlags = []string{"-k", "5", "-window", "2000"}

// durable is trackerFlags under data dir plus extra flags.
func durable(dir string, extra ...string) []string {
	return append(append([]string{"-data-dir", dir}, trackerFlags...), extra...)
}

// reference is the seeds of an uninterrupted, memory-only simserve fed
// actions in one request: what a recovered server must answer.
func reference(t *testing.T, actions []sim.Action) api.SeedsResponse {
	t.Helper()
	ref := start(t, "simserve", trackerFlags...)
	ingest(t, ref.client(), actions, len(actions))
	return seeds(t, ref.client())
}

// TestServe boots simserve, feeds it through simctl's stdin, reads seeds,
// a relational plan and stats, checks simctl's error contract on an unknown
// tracker, and drains it with SIGTERM.
func TestServe(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	srv := start(t, "simserve", trackerFlags...)
	c := srv.client()

	// simgen … | simctl ingest default -
	ctl := exec.Command(bin("simctl"), "-addr", srv.url(), "ingest", "default", "-")
	ctl.Stdin = bytes.NewReader(simgen(t, 1000, 1000))
	out, err := ctl.Output()
	if err != nil {
		t.Fatalf("simctl ingest: %v", err)
	}
	var ing api.IngestResponse
	if err := json.Unmarshal(out, &ing); err != nil || ing.Processed != 1000 {
		t.Fatalf("simctl ingest printed %s (%v), want processed 1000", out, err)
	}

	if s := seeds(t, c); len(s.Seeds) == 0 {
		t.Fatalf("seeds query returned no seeds: %+v", s)
	}

	res, err := c.Query(ctx, "default", api.QueryRequest{Plan: query.Plan{
		Scan: "seeds",
		Ops:  []query.Op{{Op: "topk", Col: "influence", K: 3, Desc: true}},
	}})
	if err != nil || len(res.Rows) == 0 {
		t.Fatalf("top-3 query: %+v, %v; want rows", res, err)
	}
	if res.Processed != 1000 {
		t.Fatalf("query ran against the snapshot at processed %d, want 1000", res.Processed)
	}

	var stderr bytes.Buffer
	ctl = exec.Command(bin("simctl"), "-addr", srv.url(), "seeds", "no-such-tracker")
	ctl.Stderr = &stderr
	if err := ctl.Run(); err == nil {
		t.Fatal("simctl exited 0 on an unknown tracker")
	}
	msg := stderr.String()
	if i := strings.Index(msg, "unknown tracker"); i < 0 || !strings.Contains(msg[i:], "404") {
		t.Fatalf("simctl stderr %q does not carry the envelope message and then 404", msg)
	}

	st, err := c.Stats(ctx, "default")
	if err != nil || st.QueueCapacity <= 0 {
		t.Fatalf("stats: %+v, %v; want a queue capacity", st, err)
	}

	if err := srv.stop(syscall.SIGTERM); err != nil {
		t.Fatalf("simserve after SIGTERM: %v, want exit 0", err)
	}
}

// TestRecover kill -9s a durable simserve twice: the first restart comes
// back from a snapshot (a tiny WAL threshold forces one), the second from
// WAL replay alone (a huge threshold forbids one). The recovered seeds must
// equal an uninterrupted run's.
func TestRecover(t *testing.T) {
	t.Parallel()
	out, err := exec.Command(bin("simserve"), "-version").Output()
	if err != nil || !strings.HasPrefix(string(out), "simserve ") {
		t.Fatalf("simserve -version: %q, %v", out, err)
	}
	actions := stream(t, 2000, 1000)
	dir := t.TempDir()

	srv := start(t, "simserve", durable(dir, "-wal-snapshot-bytes", "4096")...)
	h, err := srv.client().Health(context.Background())
	if err != nil || !h.Durable {
		t.Fatalf("healthz: %+v, %v; want durable", h, err)
	}
	ingest(t, srv.client(), actions[:1000], 200)
	if _, err := os.Stat(filepath.Join(dir, "default", "snapshot.sim2")); err != nil {
		t.Fatalf("no snapshot despite the tiny WAL threshold: %v", err)
	}

	srv.kill()
	srv.restart(durable(dir, "-wal-snapshot-bytes", "1073741824")...)
	if s := seeds(t, srv.client()); s.Processed != 1000 {
		t.Fatalf("after the snapshot-path restart processed = %d, want 1000", s.Processed)
	}
	ingest(t, srv.client(), actions[1000:], 200)

	srv.kill()
	srv.restart(durable(dir)...)
	got := seeds(t, srv.client())
	if got.Processed != 2000 {
		t.Fatalf("after the WAL-replay restart processed = %d, want 2000", got.Processed)
	}
	if want := reference(t, actions); !reflect.DeepEqual(got, want) {
		t.Fatalf("kill -9 recovered seeds %+v, uninterrupted run %+v", got, want)
	}
}

// The chaos run's fault plan: WAL appends fail twice mid-stream (503, which
// the client retries) and a snapshot write fails once (backoff and retry,
// invisible to clients), plus the rule -fault-seed derives.
const (
	chaosFaults = "op=write,path=wal.log,after=4,times=2,err=EIO;op=write,path=snapshot.sim2,after=1,times=1,err=ENOSPC"
	chaosSeed   = "42"
)

// TestChaos ingests through a retrying client into a simserve with injected
// filesystem faults, kill -9s it and restarts it on a healed disk: no acked
// action is lost and the seeds equal an uninterrupted run's. Ingest goes on,
// a request at a time with pauses that outlast the snapshot backoff, until
// both snapshot rules have failed an attempt — the write at the first, the
// seeded rename at the fifth that reaches a rename — so the restart loads
// the snapshot a success left and replays only the WAL behind it.
func TestChaos(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	actions := stream(t, 10000, 1000)
	dir := t.TempDir()

	srv := start(t, "simserve", durable(dir, "-wal-snapshot-bytes", "4096",
		"-fault", chaosFaults, "-fault-seed", chaosSeed)...)
	c := srv.client()
	c.Retry = api.RetryPolicy{MaxRetries: 8}
	var m api.TrackerMetricsResponse
	sent := 0
	for ; m.SnapshotRetries < 2; sent += 200 {
		if sent == len(actions) {
			t.Fatalf("the stream ran out with %d snapshot retries: a snapshot rule never fired", m.SnapshotRetries)
		}
		ingest(t, c, actions[sent:sent+200], 200)
		time.Sleep(100 * time.Millisecond)
		var err error
		if m, err = c.TrackerMetrics(ctx, "default"); err != nil {
			t.Fatalf("metrics during the faulted run: %v", err)
		}
	}
	t.Logf("after the faulted run of %d actions: state %s, %d snapshot retries, %d WAL re-arms",
		sent, m.State, m.SnapshotRetries, m.WALRearms)

	srv.kill()
	srv.restart(durable(dir)...)
	got := seeds(t, srv.client())
	if got.Processed != int64(sent) {
		t.Fatalf("acked actions lost: processed = %d, want %d", got.Processed, sent)
	}
	r, err := srv.client().TrackerMetrics(ctx, "default")
	if err != nil || !r.RecoveredSnapshot || r.RecoveredWALActions >= sent {
		t.Fatalf("restart recovered %+v, %v; want a snapshot and a WAL tail shorter than the %d actions", r, err, sent)
	}
	if want := reference(t, actions[:sent]); !reflect.DeepEqual(got, want) {
		t.Fatalf("chaos-recovered seeds %+v, uninterrupted run %+v", got, want)
	}
}

// TestVersion: the one link-time version, api.Version, is what simserve and
// simrouter both print for -version and report on /v1/healthz.
func TestVersion(t *testing.T) {
	t.Parallel()
	for _, name := range []string{"simserve", "simrouter"} {
		out, err := exec.Command(bin(name), "-version").Output()
		if want := name + " " + buildVersion + " ("; err != nil || !strings.HasPrefix(string(out), want) {
			t.Errorf("%s -version: %q, %v; want it to start %q", name, out, err, want)
		}
	}
	srv := start(t, "simserve", trackerFlags...)
	rt := start(t, "simrouter", "-shards", srv.url())
	if h, err := srv.client().Health(context.Background()); err != nil || h.Version != buildVersion {
		t.Errorf("simserve healthz: %+v, %v; want version %q", h, err, buildVersion)
	}
	if h, err := rt.client().ClusterHealth(context.Background()); err != nil || h.Version != buildVersion {
		t.Errorf("simrouter healthz: %+v, %v; want version %q", h, err, buildVersion)
	}
}

// TestCluster boots two simserve shards behind a simrouter, ingests through
// the router, checks the merged answers and cluster health, then stops one
// shard: reads keep answering, flagged partial, and health reads degraded.
func TestCluster(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	shards := []*proc{start(t, "simserve", trackerFlags...), start(t, "simserve", trackerFlags...)}
	rt := start(t, "simrouter", "-shards", shards[0].url()+","+shards[1].url())
	c := rt.client()
	waitFor(t, "2 healthy shards", func() bool {
		h, err := c.ClusterHealth(ctx)
		return err == nil && h.Healthy == 2
	})

	resp, err := c.Ingest(ctx, "default", stream(t, 2000, 2000))
	if err != nil || resp.Processed != 2000 {
		t.Fatalf("router ingest: %+v, %v; want cluster-total processed 2000", resp, err)
	}
	for i, s := range shards {
		v, err := s.client().Value(ctx, "default")
		if err != nil || v.Processed == 0 {
			t.Fatalf("shard %d: %+v, %v; want a share of the stream", i, v, err)
		}
	}

	s := seeds(t, c)
	if len(s.Seeds) == 0 || s.Partial {
		t.Fatalf("merged seeds with every shard up: %+v; want seeds, not partial", s)
	}
	if h, err := c.ClusterHealth(ctx); err != nil || h.Status != "ok" {
		t.Fatalf("cluster health: %+v, %v; want ok", h, err)
	}

	_ = shards[1].stop(syscall.SIGTERM)
	waitFor(t, "a value flagged partial", func() bool {
		v, err := c.Value(ctx, "default")
		return err == nil && v.Partial
	})
	if h, err := c.ClusterHealth(ctx); err != nil || h.Status != "degraded" || h.Healthy != 1 {
		t.Fatalf("cluster health with a shard down: %+v, %v; want degraded, 1 healthy", h, err)
	}
	if s := seeds(t, c); !s.Partial {
		t.Fatalf("seeds with a shard down not flagged partial: %+v", s)
	}
}

// TestSpill runs a durable simserve under an 8 KiB memory budget: ingest
// spills contribution logs to cold segment files, and after a kill -9 the
// restart maps those segments from the snapshot instead of replaying the
// spilled history. The answer after the whole stream equals an
// uninterrupted, unbudgeted, memory-only run's.
func TestSpill(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	tracker := []string{"-k", "5", "-window", "1500"}
	actions := stream(t, 3000, 1500)
	dir := t.TempDir()
	budgeted := append([]string{"-data-dir", dir, "-wal-snapshot-bytes", "2048", "-memory-budget", "8192"}, tracker...)
	metrics := func(c *api.Client) api.TrackerMetricsResponse {
		t.Helper()
		m, err := c.TrackerMetrics(ctx, "default")
		if err != nil {
			t.Fatalf("metrics: %v", err)
		}
		return m
	}

	srv := start(t, "simserve", budgeted...)
	ingest(t, srv.client(), actions[:1500], 100)
	if s := seeds(t, srv.client()); s.Processed != 1500 {
		t.Fatalf("after the first half processed = %d, want 1500", s.Processed)
	}
	if m := metrics(srv.client()); m.ColdSegments == 0 || m.Spills == 0 {
		t.Fatalf("the budget spilled nothing: %d cold segments, %d spill passes", m.ColdSegments, m.Spills)
	}
	if segs, err := filepath.Glob(filepath.Join(dir, "default", "spill", "*.sim2")); err != nil || len(segs) == 0 {
		t.Fatalf("no segment file under the spill directory (%v)", err)
	}

	srv.kill()
	srv.restart(budgeted...)
	if s := seeds(t, srv.client()); s.Processed != 1500 {
		t.Fatalf("after the restart processed = %d, want 1500", s.Processed)
	}
	// The 2048-byte WAL threshold keeps the tail behind the snapshot to a
	// few hundred actions; replaying near the 1500 ingested would mean the
	// restart rebuilt the spilled history instead of mapping it.
	m := metrics(srv.client())
	if !m.RecoveredSnapshot || m.ColdSegments == 0 || m.RecoveredWALActions >= 500 {
		t.Fatalf("restart recovered snapshot %v, %d cold segments, %d WAL actions; want a snapshot, mapped segments and under 500 WAL actions",
			m.RecoveredSnapshot, m.ColdSegments, m.RecoveredWALActions)
	}
	t.Logf("restart mapped %d cold segments and replayed %d WAL actions", m.ColdSegments, m.RecoveredWALActions)

	ingest(t, srv.client(), actions[1500:], 100)
	got := seeds(t, srv.client())
	if got.Processed != 3000 {
		t.Fatalf("after the second half processed = %d, want 3000", got.Processed)
	}
	ref := start(t, "simserve", tracker...)
	ingest(t, ref.client(), actions, len(actions))
	if want := seeds(t, ref.client()); !reflect.DeepEqual(got, want) {
		t.Fatalf("budgeted, kill -9-recovered seeds %+v, unbudgeted run %+v", got, want)
	}

	for _, p := range []*proc{srv, ref} {
		if err := p.stop(syscall.SIGTERM); err != nil {
			t.Fatalf("%s after SIGTERM: %v, want exit 0", p.name, err)
		}
	}
}

package server_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/api"
	"repro/internal/server"
)

// tieredFixture boots a durable, name-mode tracker whose memory budget is
// small enough that most of its window lives in cold segments, and feeds it
// the first 2000 actions of the test stream in 100-action batches, users
// named "user-<id>".
func tieredFixture(t *testing.T) *api.Client {
	t.Helper()
	reg := server.NewRegistry()
	reg.SetDataDir(t.TempDir())
	if _, err := reg.Add("default", api.Spec{K: 3, Window: 1000, Names: true, MemoryBudgetBytes: 4096}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(server.New(reg))
	t.Cleanup(srv.Close)
	t.Cleanup(func() { reg.Close() })
	client := api.NewClient(srv.URL)
	actions := testStream(2000)
	for i := 0; i < len(actions); i += 100 {
		var named []api.NamedAction
		for _, a := range actions[i : i+100] {
			named = append(named, api.NamedAction{ID: a.ID, User: fmt.Sprintf("user-%d", a.User), Parent: a.Parent})
		}
		if _, err := client.IngestNamed(context.Background(), "default", named); err != nil {
			t.Fatal(err)
		}
	}
	return client
}

// get returns the body of GET url, failing on any status but 200.
func get(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %v: %s", url, resp.StatusCode, err, body)
	}
	return body
}

// TestSnapshotWireCompatibility pins GET /v1/trackers/{name} to bytes the
// handler wrote before the snapshot's operational counters were gathered
// into the embedded sim.Counters: every key keeps its place and its value.
// The tiered fixture makes the cold-tier counters non-zero.
func TestSnapshotWireCompatibility(t *testing.T) {
	empty, _ := newTestServer(t, api.Spec{K: 3, Window: 200})
	for _, c := range []struct {
		golden string
		client *api.Client
	}{
		{"snapshot_empty.golden", empty},
		{"snapshot_numeric.golden", candidatesFixture(t, false)},
		{"snapshot_names.golden", candidatesFixture(t, true)},
		{"snapshot_tiered.golden", tieredFixture(t)},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", c.golden))
		if err != nil {
			t.Fatal(err)
		}
		if got := get(t, c.client.BaseURL+"/v1/trackers/default"); !bytes.Equal(got, want) {
			t.Errorf("%s: snapshot body changed:\n got %s\nwant %s", c.golden, got, want)
		}
	}
}

// TestMetricsSeriesMatchJSON: every per-tracker /metrics series reports the
// JSON field it reads — from the snapshot (GET /v1/trackers/{name}) or the
// tracker metrics (GET /v1/trackers/{name}/metrics) — on a durable,
// name-mode tracker under a memory budget, so the tier counters are live.
// A series missing from the table below fails the test, as does one the
// server stopped writing.
func TestMetricsSeriesMatchJSON(t *testing.T) {
	client := tieredFixture(t)
	var snap, tm map[string]any
	for _, r := range []struct {
		path string
		into *map[string]any
	}{{"/v1/trackers/default", &snap}, {"/v1/trackers/default/metrics", &tm}} {
		if err := json.Unmarshal(get(t, client.BaseURL+r.path), r.into); err != nil {
			t.Fatal(err)
		}
	}
	for _, key := range []string{"resident_bytes", "hot_log_bytes", "cold_log_bytes", "cold_users", "cold_segments", "spills", "cold_faults"} {
		if v, _ := tm[key].(float64); v == 0 {
			t.Errorf("%s = 0: the fixture did not exercise the cold tier", key)
		}
		if tm[key] != snap[key] {
			t.Errorf("%s: tracker metrics say %v, the snapshot %v", key, tm[key], snap[key])
		}
	}
	state := slices.Index([]string{"ok", "degraded-readonly"}, tm["state"].(string))
	want := map[string]any{
		"ingested_total":           snap["processed"],
		"value":                    snap["value"],
		"checkpoints_live":         snap["checkpoints"],
		"elements_fed_total":       snap["elements_fed"],
		"elements_unchanged_total": tm["elements_unchanged"],
		"scans_total":              tm["scans"],
		"scan_members_total":       tm["scan_members"],
		"view_rebuilds_total":      tm["view_rebuilds"],
		"view_reuses_total":        tm["view_reuses"],
		"view_refreshed_total":     tm["view_refreshed"],
		"queue_depth":              tm["queue_depth"],
		"queue_capacity":           tm["queue_capacity"],
		"queue_high_water":         tm["queue_depth_high_water"],
		"shed_total":               tm["shed_requests"],
		"snapshot_retries_total":   tm["snapshot_retries"],
		"wal_rearms_total":         tm["wal_rearms"],
		"state":                    float64(state),
		"resident_bytes":           tm["resident_bytes"],
		"hot_log_bytes":            tm["hot_log_bytes"],
		"cold_log_bytes":           tm["cold_log_bytes"],
		"cold_segments":            tm["cold_segments"],
		"spills_total":             tm["spills"],
		"cold_faults_total":        tm["cold_faults"],
	}
	got := map[string]any{}
	sc := bufio.NewScanner(bytes.NewReader(get(t, client.BaseURL+"/metrics")))
	for sc.Scan() {
		series, value, ok := strings.Cut(sc.Text(), `{tracker="default"} `)
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			t.Fatalf("%s: %v", sc.Text(), err)
		}
		got[strings.TrimPrefix(series, "simserve_")] = v
	}
	for series, v := range want {
		if v == nil || got[series] != v {
			t.Errorf("simserve_%s = %v, want %v", series, got[series], v)
		}
	}
	for series := range got {
		if _, ok := want[series]; !ok {
			t.Errorf("simserve_%s is not in the test's table", series)
		}
	}
}

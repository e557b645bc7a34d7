package server

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/api"
	"repro/intern"
	"repro/internal/fault"
	"repro/internal/gen"
	"repro/sim"
)

// durableSpec is a small tracker configuration shared by the tests.
var durableSpec = api.Spec{K: 5, Window: 1500, Slide: 10}

// durableStream generates a deterministic action stream.
func durableStream(n int) []sim.Action {
	cfg := gen.SynO(400, n, 1000, 42)
	return gen.Stream(cfg)
}

// submitChunks feeds actions through the Tracked in fixed-size batches.
func submitChunks(t *testing.T, tr *Tracked, actions []sim.Action, chunk int) {
	t.Helper()
	for len(actions) > 0 {
		n := min(chunk, len(actions))
		if _, err := tr.Submit(context.Background(), actions[:n]); err != nil {
			t.Fatalf("Submit: %v", err)
		}
		actions = actions[n:]
	}
}

// serialReference replays actions through a bare sim.Tracker.
func serialReference(t *testing.T, actions []sim.Action) sim.Snapshot {
	t.Helper()
	return chunkedReference(t, durableSpec, actions, len(actions))
}

// chunkedReference replays actions through a bare sim.Tracker built from
// spec, one ProcessAll call per chunk actions the way live ingest makes one
// per submitted batch. At Batch <= 1 the chunking is immaterial.
func chunkedReference(t *testing.T, spec api.Spec, actions []sim.Action, chunk int) sim.Snapshot {
	t.Helper()
	tr, err := sim.New(spec.Config())
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	for len(actions) > 0 {
		n := min(chunk, len(actions))
		if err := tr.ProcessAll(actions[:n]); err != nil {
			t.Fatal(err)
		}
		actions = actions[n:]
	}
	return tr.Snapshot()
}

// checkAnswer compares the served snapshot's answer to the reference.
func checkAnswer(t *testing.T, label string, got *sim.Snapshot, want sim.Snapshot) {
	t.Helper()
	if got.Processed != want.Processed {
		t.Fatalf("%s: processed = %d, want %d", label, got.Processed, want.Processed)
	}
	if got.Value != want.Value {
		t.Fatalf("%s: value = %v, want %v", label, got.Value, want.Value)
	}
	if !reflect.DeepEqual(got.Seeds, want.Seeds) {
		t.Fatalf("%s: seeds = %v, want %v", label, got.Seeds, want.Seeds)
	}
	if !reflect.DeepEqual(got.CheckpointStarts, want.CheckpointStarts) {
		t.Fatalf("%s: checkpoint starts = %v, want %v", label, got.CheckpointStarts, want.CheckpointStarts)
	}
}

// TestDurableGracefulRestart round-trips through the graceful path: Close
// takes a final snapshot, and a new registry over the same data dir comes
// back with identical state (and an empty WAL to replay).
func TestDurableGracefulRestart(t *testing.T) {
	dir := t.TempDir()
	actions := durableStream(2000)

	reg := NewRegistry()
	reg.SetDataDir(dir)
	tr, err := reg.Add("t", durableSpec)
	if err != nil {
		t.Fatal(err)
	}
	submitChunks(t, tr, actions, 128)
	if err := reg.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	reg2 := NewRegistry()
	reg2.SetDataDir(dir)
	tr2, err := reg2.Add("t", durableSpec)
	if err != nil {
		t.Fatalf("recovery Add: %v", err)
	}
	defer reg2.Close()
	info, durable := tr2.Recovery()
	if !durable || !info.SnapshotLoaded {
		t.Fatalf("expected snapshot-backed recovery, got %+v (durable=%v)", info, durable)
	}
	if info.WALBatches != 0 {
		t.Fatalf("graceful shutdown left %d WAL batches", info.WALBatches)
	}
	checkAnswer(t, "recovered", tr2.Snapshot(), serialReference(t, actions))
}

// TestDurableCrashRecovery simulates kill -9: the data directory is copied
// while the tracker is live (snapshots and WAL are fsynced, so the copy is
// what a crash would leave) and a fresh registry recovers from the copy.
// The recovered tracker must be the live one — same answer at the crash
// point, and the same answer again after both ingest more — at every sim
// batch size, both with and without a mid-life snapshot in the mix. 120
// actions per submit is a multiple of neither 7 nor 50, so a replay that ran
// WAL records together would cut different ingestion batches.
func TestDurableCrashRecovery(t *testing.T) {
	all := durableStream(3000)
	// 22 submits before the crash leave a two-record tail behind the last
	// 2048-byte snapshot; 3 more follow it.
	actions, more := all[:2640], all[2640:]
	for _, walLimit := range []int64{0, 2048} { // 0: WAL-only; 2048: snapshot + WAL tail
		t.Run(fmt.Sprintf("walLimit=%d", walLimit), func(t *testing.T) {
			for _, batch := range []int{1, 7, 50} {
				t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
					dir := t.TempDir()
					spec := durableSpec
					spec.SnapshotWALBytes = walLimit
					spec.Batch = batch

					reg := NewRegistry()
					reg.SetDataDir(dir)
					tr, err := reg.Add("t", spec)
					if err != nil {
						t.Fatal(err)
					}
					defer reg.Close()
					submitChunks(t, tr, actions, 120)
					live := *tr.Snapshot()

					// "Crash": copy the synced files out from under the live server.
					crashDir := t.TempDir()
					copyTree(t, filepath.Join(dir, "t"), filepath.Join(crashDir, "t"))
					if walLimit > 0 {
						if _, err := os.Stat(filepath.Join(crashDir, "t", snapshotFileName)); err != nil {
							t.Fatalf("expected a mid-life snapshot to exist: %v", err)
						}
					}

					reg2 := NewRegistry()
					reg2.SetDataDir(crashDir)
					tr2, err := reg2.Add("t", spec)
					if err != nil {
						t.Fatalf("crash recovery Add: %v", err)
					}
					defer reg2.Close()
					info, _ := tr2.Recovery()
					if walLimit > 0 && (!info.SnapshotLoaded || info.WALBatches < 2) {
						t.Fatalf("expected a snapshot plus a WAL tail of several records, got %+v", info)
					}
					if walLimit == 0 && info.WALBatches == 0 {
						t.Fatalf("expected WAL replay, got %+v", info)
					}
					checkAnswer(t, "crash-recovered vs live", tr2.Snapshot(), live)
					if batch == 1 {
						checkAnswer(t, "crash-recovered vs serial", tr2.Snapshot(), serialReference(t, actions))
					}

					// The recovered tracker keeps serving: ingest more on both.
					submitChunks(t, tr, more, 120)
					submitChunks(t, tr2, more, 120)
					checkAnswer(t, "post-recovery ingest vs live", tr2.Snapshot(), *tr.Snapshot())
					if batch == 1 {
						checkAnswer(t, "post-recovery ingest vs serial", tr2.Snapshot(), serialReference(t, all))
					}
				})
			}
		})
	}
}

// TestDurableTornWALTail appends garbage to the WAL (a torn final write)
// and asserts recovery stops cleanly at the tear instead of failing — and
// cuts it away: what the recovered tracker acknowledges next must survive a
// second kill -9, which it does not if those records were appended behind
// the junk, where replay never looks.
func TestDurableTornWALTail(t *testing.T) {
	dir := t.TempDir()
	all := durableStream(1500)
	actions, more := all[:1000], all[1000:]

	reg := NewRegistry()
	reg.SetDataDir(dir)
	tr, err := reg.Add("t", durableSpec)
	if err != nil {
		t.Fatal(err)
	}
	submitChunks(t, tr, actions, 250)
	crashDir := t.TempDir()
	copyTree(t, filepath.Join(dir, "t"), filepath.Join(crashDir, "t"))
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}

	tearWALTail(t, filepath.Join(crashDir, "t", walFileName))

	reg2 := NewRegistry()
	reg2.SetDataDir(crashDir)
	tr2, err := reg2.Add("t", durableSpec)
	if err != nil {
		t.Fatalf("recovery with torn WAL tail: %v", err)
	}
	defer reg2.Close()
	checkAnswer(t, "torn-tail recovery", tr2.Snapshot(), serialReference(t, actions))

	submitChunks(t, tr2, more, 250)
	crashDir2 := t.TempDir()
	copyTree(t, filepath.Join(crashDir, "t"), filepath.Join(crashDir2, "t"))
	reg3 := NewRegistry()
	reg3.SetDataDir(crashDir2)
	tr3, err := reg3.Add("t", durableSpec)
	if err != nil {
		t.Fatalf("second recovery: %v", err)
	}
	defer reg3.Close()
	checkAnswer(t, "second crash after a torn tail", tr3.Snapshot(), serialReference(t, all))
}

// tearWALTail leaves what a kill -9 mid-append leaves at the end of the WAL:
// a record header claiming more bytes than exist.
func tearWALTail(t *testing.T, walPath string) {
	t.Helper()
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write([]byte{walRecordTag, 0xff, 0x07, 'x', 'y'}); err != nil {
		t.Fatal(err)
	}
}

// TestDurableConflictBatchReplay pins that a live stream-order rejection
// (prefix applied, batch aborted) recovers to the identical state: the WAL
// preserves batch boundaries and replay tolerates the same rejection.
func TestDurableConflictBatchReplay(t *testing.T) {
	dir := t.TempDir()
	actions := durableStream(600)

	reg := NewRegistry()
	reg.SetDataDir(dir)
	tr, err := reg.Add("t", durableSpec)
	if err != nil {
		t.Fatal(err)
	}
	submitChunks(t, tr, actions[:400], 100)
	// A bad batch: valid prefix, then an ID that rewinds.
	bad := append(append([]sim.Action{}, actions[400:420]...), sim.Action{ID: 3, User: 1, Parent: sim.NoParent})
	if _, err := tr.Submit(context.Background(), bad); err == nil {
		t.Fatal("non-monotonic batch accepted")
	}
	live := tr.Snapshot()

	crashDir := t.TempDir()
	copyTree(t, filepath.Join(dir, "t"), filepath.Join(crashDir, "t"))
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}

	reg2 := NewRegistry()
	reg2.SetDataDir(crashDir)
	tr2, err := reg2.Add("t", durableSpec)
	if err != nil {
		t.Fatalf("recovery Add: %v", err)
	}
	defer reg2.Close()
	checkAnswer(t, "conflict replay", tr2.Snapshot(), *live)
}

// TestDurableTrackerNameValidation rejects names that cannot be directory
// components on a durable registry.
func TestDurableTrackerNameValidation(t *testing.T) {
	reg := NewRegistry()
	reg.SetDataDir(t.TempDir())
	for _, name := range []string{"a/b", `a\b`, ".", ".."} {
		if _, err := reg.Add(name, durableSpec); err == nil {
			t.Errorf("durable registry accepted tracker name %q", name)
		}
	}
}

// TestDurableConflictBatchAfterSnapshot: a conflict batch ends on a LOW id
// (the rewinding offender) while its applied prefix lies beyond the last
// snapshot. Replay coverage must therefore be judged by the batch's max ID
// — judging by its final element skips the record and loses the
// acknowledged prefix.
func TestDurableConflictBatchAfterSnapshot(t *testing.T) {
	dir := t.TempDir()
	actions := durableStream(600)

	// Phase 1: ingest a prefix and close gracefully — the forced final
	// snapshot now covers it and the WAL is empty.
	reg := NewRegistry()
	reg.SetDataDir(dir)
	tr, err := reg.Add("t", durableSpec)
	if err != nil {
		t.Fatal(err)
	}
	submitChunks(t, tr, actions[:400], 100)
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}

	// Phase 2: the conflict batch [401..420, rewind] — prefix applied, 409,
	// record in the WAL, no snapshot taken. Crash before any.
	reg = NewRegistry()
	reg.SetDataDir(dir)
	if tr, err = reg.Add("t", durableSpec); err != nil {
		t.Fatal(err)
	}
	bad := append(append([]sim.Action{}, actions[400:420]...), sim.Action{ID: 3, User: 1, Parent: sim.NoParent})
	if _, err := tr.Submit(context.Background(), bad); err == nil {
		t.Fatal("non-monotonic batch accepted")
	}
	live := tr.Snapshot()
	if live.Processed != 420 {
		t.Fatalf("live processed = %d, want 420 (applied prefix)", live.Processed)
	}

	crashDir := t.TempDir()
	copyTree(t, filepath.Join(dir, "t"), filepath.Join(crashDir, "t"))
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}

	reg2 := NewRegistry()
	reg2.SetDataDir(crashDir)
	tr2, err := reg2.Add("t", durableSpec)
	if err != nil {
		t.Fatalf("recovery Add: %v", err)
	}
	defer reg2.Close()
	checkAnswer(t, "conflict batch after snapshot", tr2.Snapshot(), *live)
}

// TestDataDirLock: a second process (here: a second recovery) pointed at a
// live tracker's data dir must fail fast instead of interleaving WAL
// appends, and the lock must be released by a graceful Close.
func TestDataDirLock(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("flock is advisory-unix only")
	}
	dir := t.TempDir()
	reg := NewRegistry()
	reg.SetDataDir(dir)
	if _, err := reg.Add("default", durableSpec); err != nil {
		t.Fatal(err)
	}
	if tr, _, _, err := recoverTracker(nil, filepath.Join(dir, "default"), durableSpec.Config(), 0, nil); err == nil {
		tr.Close()
		t.Fatal("second recovery of a locked data dir succeeded")
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	tr, d, _, err := recoverTracker(nil, filepath.Join(dir, "default"), durableSpec.Config(), 0, nil)
	if err != nil {
		t.Fatalf("recovery after Close: %v", err)
	}
	d.close()
	tr.Close()
}

// TestOneFsyncPerBatch counts the fsyncs of a name-mode tracker fed new names
// in most of its batches: one per acknowledged batch — its WAL record, the
// names in it included — plus one per snapshot written, and no other.
func TestOneFsyncPerBatch(t *testing.T) {
	inj := fault.NewInjector(fault.OS())
	snaps := inj.Add(fault.Rule{Op: fault.OpSync, Path: snapshotFileName, DelayOnly: true})
	wals := inj.Add(fault.Rule{Op: fault.OpSync, Path: walFileName, DelayOnly: true})
	others := inj.Add(fault.Rule{Op: fault.OpSync, DelayOnly: true})
	reg := NewRegistry()
	reg.SetFS(inj)
	reg.SetDataDir(t.TempDir())
	spec := durableSpec
	spec.Names = true
	spec.SnapshotWALBytes = 2048
	tr, err := reg.Add("t", spec)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	actions := durableStream(2400)
	for i := 0; i < len(actions); i += 100 {
		submitChunks(t, tr, internStream(actions[i:i+100], tr.Names()), 100)
	}
	s, _ := inj.Stats(snaps)
	w, _ := inj.Stats(wals)
	o, _ := inj.Stats(others)
	t.Logf("%d batches: %d WAL syncs, %d snapshot syncs, %d other syncs", len(actions)/100, w, s, o)
	if w != len(actions)/100 || s == 0 || o != 0 {
		t.Fatalf("%d WAL syncs for %d batches, %d snapshot syncs, %d other syncs", w, len(actions)/100, s, o)
	}
}

// TestFoldNames pins the one rule names on disk are read back by: a name at
// an ID the table has must be the one there, a new one must land at its ID —
// and a boot whose snapshot and WAL disagree on a name fails rather than
// serving a table that maps IDs to the wrong users.
func TestFoldNames(t *testing.T) {
	tb := intern.New(0)
	for _, step := range []struct {
		first int
		names []string
		ok    bool
	}{
		{0, []string{"a", "b"}, true},
		{1, []string{"b", "c"}, true}, // overlaps what the table has
		{1, []string{"x"}, false},     // ID 1 is "b"
		{5, []string{"d"}, false},     // a gap: ID 3 was never named
		{3, []string{"a"}, false},     // "a" already has ID 0
	} {
		if err := foldNames(tb, step.first, step.names); (err == nil) != step.ok {
			t.Fatalf("fold %v at %d: err = %v, want ok = %v", step.names, step.first, err, step.ok)
		}
	}
	if err := foldNames(nil, 0, []string{"a"}); err != nil {
		t.Fatalf("numeric mode folded names: %v", err)
	}

	dir := t.TempDir()
	reg := NewRegistry()
	reg.SetDataDir(dir)
	spec := durableSpec
	spec.Names = true
	tr, err := reg.Add("t", spec)
	if err != nil {
		t.Fatal(err)
	}
	submitChunks(t, tr, internStream(durableStream(200), tr.Names()), 100)
	if err := reg.Close(); err != nil { // the snapshot holds the names
		t.Fatal(err)
	}
	w, err := openWAL(fault.OS(), filepath.Join(dir, "t", walFileName), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.append(walRecord{names: []string{"not-u0"}}); err != nil {
		t.Fatal(err)
	}
	w.close()
	reg2 := NewRegistry()
	reg2.SetDataDir(dir)
	if _, err := reg2.Add("t", spec); err == nil || !strings.Contains(err.Error(), "on disk with ID 0") {
		reg2.Close()
		t.Fatalf("boot of a WAL that renames ID 0: err = %v", err)
	}
}

// TestBootRefusesTheOtherNameMode: a data dir holds the evidence of the
// name mode it was written in — a NAME section in every name-mode snapshot,
// a names trailer on every name-mode record that interned a name — and a
// boot in the other mode refuses it, naming the file (and a WAL record's
// number), instead of serving IDs under the wrong names or none. So does a
// name-mode boot that replays a record referencing an ID no name is on disk
// for.
func TestBootRefusesTheOtherNameMode(t *testing.T) {
	// write runs a tracker over 200 actions and returns the data-dir root:
	// stopped gracefully (the snapshot holds everything, the WAL is empty)
	// or, with crash set, copied while running (the WAL holds everything).
	write := func(t *testing.T, names, crash bool) string {
		reg := NewRegistry()
		dir := t.TempDir()
		reg.SetDataDir(dir)
		spec := durableSpec
		spec.Names = names
		tr, err := reg.Add("t", spec)
		if err != nil {
			t.Fatal(err)
		}
		actions := durableStream(200)
		if names {
			actions = internStream(actions, tr.Names())
		}
		submitChunks(t, tr, actions, 100)
		if crash {
			crashDir := t.TempDir()
			copyTree(t, filepath.Join(dir, "t"), filepath.Join(crashDir, "t"))
			dir = crashDir
		}
		if err := reg.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	snapshot := filepath.Join("t", snapshotFileName)
	record1 := filepath.Join("t", walFileName) + " record 1: "
	cases := []struct {
		name         string
		names, crash bool // how the dir was written; the boot is in the other mode
		unnamed      bool // instead: a name-mode record of an unnamed ID, booted in name mode
		want1, want2 string
	}{
		{name: "numeric-snapshot-as-names", want1: snapshot, want2: "without a name table"},
		{name: "numeric-wal-as-names", crash: true, want1: record1, want2: "has no name (the table holds 0)"},
		{name: "names-snapshot-as-numeric", names: true, want1: snapshot, want2: "with a name table"},
		{name: "names-wal-as-numeric", names: true, crash: true, want1: record1, want2: "names trailer"},
		{name: "unnamed-id", names: true, unnamed: true, want1: record1, want2: "user ID 100000 has no name"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := write(t, tc.names, tc.crash)
			spec := durableSpec
			spec.Names = !tc.names
			if tc.unnamed {
				spec.Names = true
				w, err := openWAL(fault.OS(), filepath.Join(dir, "t", walFileName), 0)
				if err != nil {
					t.Fatal(err)
				}
				err = w.append(walRecord{batch: []sim.Action{{ID: 1 << 20, User: 100000, Parent: sim.NoParent}}})
				w.close()
				if err != nil {
					t.Fatal(err)
				}
			}
			reg := NewRegistry()
			reg.SetDataDir(dir)
			defer reg.Close()
			_, err := reg.Add("t", spec)
			if err == nil || !strings.Contains(err.Error(), tc.want1) || !strings.Contains(err.Error(), tc.want2) {
				t.Fatalf("boot: err = %v, want one naming %q and %q", err, tc.want1, tc.want2)
			}
		})
	}
}

// TestWALRollbackPoison: an append whose rollback also fails must poison
// the log — acknowledging records appended after leftover junk would
// strand them behind what replay treats as the torn tail.
func TestWALRollbackPoison(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := openWAL(fault.OS(), path, 0)
	if err != nil {
		t.Fatal(err)
	}
	good := walRecord{batch: []sim.Action{{ID: 1, User: 2, Parent: -1}}}
	if err := w.append(good); err != nil {
		t.Fatal(err)
	}
	// Close the fd out from under the wal: the next append's write fails,
	// and so does the rollback truncate.
	w.f.Close()
	if err := w.append(good); err == nil {
		t.Fatal("append on a closed file succeeded")
	}
	if w.broken == nil {
		t.Fatal("failed rollback did not poison the WAL")
	}
	if err := w.append(good); err == nil || !strings.Contains(err.Error(), "unusable") {
		t.Fatalf("poisoned WAL accepted an append (err = %v)", err)
	}
	// The record synced before the failure is still replayable.
	batches, actions, size, err := replayWAL(fault.OS(), path, func(walRecord) error { return nil })
	if err != nil || batches != 1 || actions != 1 || size != w.size {
		t.Fatalf("replay after poison: batches=%d actions=%d size=%d (appended %d) err=%v", batches, actions, size, w.size, err)
	}
}

// TestHealthDegradedOnSnapshotFailure: a durable tracker whose snapshot
// writes fail must flip /v1/healthz to "degraded" with the failure message,
// and recover to "ok" once snapshots succeed again.
func TestHealthDegradedOnSnapshotFailure(t *testing.T) {
	reg := NewRegistry()
	reg.SetDataDir(t.TempDir())
	tr, err := reg.Add("default", durableSpec)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	health := func() api.HealthResponse { return probeHealth(t, reg) }

	if h := health(); h.Status != "ok" || !h.Durable || len(h.Degraded) != 0 {
		t.Fatalf("healthy probe: %+v", h)
	}
	tr.dur.snapErr.Store("server: snapshot: disk full")
	if h := health(); h.Status != "degraded" || h.Degraded["default"] == "" {
		t.Fatalf("degraded probe: %+v", h)
	}
	tr.dur.snapErr.Store("")
	if h := health(); h.Status != "ok" || len(h.Degraded) != 0 {
		t.Fatalf("recovered probe: %+v", h)
	}
}

// TestCloseReportsFailedFinalSnapshot: a shutdown whose final snapshot
// fails says so — the next boot replays the whole WAL — and that boot still
// recovers every acknowledged action.
func TestCloseReportsFailedFinalSnapshot(t *testing.T) {
	inj := fault.NewInjector(fault.OS())
	inj.Add(fault.Rule{Op: fault.OpRename, Path: snapshotFileName})
	dir := t.TempDir()
	reg := NewRegistry()
	reg.SetFS(inj)
	reg.SetDataDir(dir)
	tr, err := reg.Add("default", durableSpec)
	if err != nil {
		t.Fatal(err)
	}
	actions := durableStream(300)
	submitChunks(t, tr, actions, 100)
	err = reg.Close()
	if err == nil || !strings.Contains(err.Error(), `server: tracker "default": final snapshot: `) {
		t.Fatalf("Close = %v, want the failed final snapshot named", err)
	}

	reg2 := NewRegistry()
	reg2.SetDataDir(dir)
	tr2, err := reg2.Add("default", durableSpec)
	if err != nil {
		t.Fatal(err)
	}
	defer reg2.Close()
	if info, _ := tr2.Recovery(); info.SnapshotLoaded || info.WALActions != len(actions) {
		t.Fatalf("recovery %+v, want no snapshot and all %d actions replayed", info, len(actions))
	}
	checkAnswer(t, "rebooted after a failed final snapshot", tr2.Snapshot(), serialReference(t, actions))
}

// copyTree copies a small directory tree of regular files (recursing into
// subdirectories, e.g. a durable tracker's spill/ directory).
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			copyTree(t, filepath.Join(src, e.Name()), filepath.Join(dst, e.Name()))
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

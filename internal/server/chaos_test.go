package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/api"
	"repro/intern"
	"repro/internal/dataio"
	"repro/internal/fault"
	"repro/internal/stream"
	"repro/sim"
)

// errEIO is the injected-error shorthand the HTTP-level tests arm rules with.
var errEIO error = syscall.EIO

// internStream relabels a numeric stream the way the name-mode ingest
// handler does: each user becomes the external name "u<id>", interned into
// tb to a dense first-appearance ID. Interning the same stream in the same
// order — whether into a scratch table or a tracker's live one — yields
// identical IDs, which is what makes reference replays comparable.
func internStream(actions []sim.Action, tb *intern.Table) []sim.Action {
	out := make([]sim.Action, len(actions))
	for i, a := range actions {
		out[i] = a
		out[i].User = sim.UserID(tb.Intern(fmt.Sprintf("u%d", a.User)))
	}
	return out
}

// compressTimers shrinks the snapshot backoff for the duration of a test so
// self-healing happens in milliseconds, restoring the production values
// afterwards. Tests in this package run sequentially, so mutating the
// package variables is safe.
func compressTimers(t *testing.T) {
	t.Helper()
	setForTest(t, &snapshotBackoffBase, 1*time.Millisecond)
	setForTest(t, &snapshotBackoffMax, 10*time.Millisecond)
}

// submitRetry submits one batch, retrying the retryable rejections — WAL
// append failure (503), degraded-readonly (503) and overload shed (429) —
// until the batch is acknowledged. This is exactly the loop a well-behaved
// client runs; anything non-retryable fails the test.
func submitRetry(t *testing.T, tr *Tracked, batch []sim.Action) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, err := tr.Submit(context.Background(), batch)
		if err == nil {
			return
		}
		if !errors.Is(err, ErrDurability) && !errors.Is(err, ErrReadOnly) && !errors.Is(err, ErrOverloaded) {
			t.Fatalf("Submit failed non-retryably: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("Submit never acknowledged: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// failedWALWrites is a fault.FS that remembers every write to wal.log that
// failed, so a cell can tell what its rule hit.
type failedWALWrites struct {
	fault.FS
	mu     sync.Mutex
	failed [][]byte
}

func (fs *failedWALWrites) OpenFile(name string, flag int, perm os.FileMode) (fault.File, error) {
	f, err := fs.FS.OpenFile(name, flag, perm)
	if err != nil || filepath.Base(name) != walFileName {
		return f, err
	}
	return walWriteFile{f, fs}, nil
}

type walWriteFile struct {
	fault.File
	fs *failedWALWrites
}

func (f walWriteFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	if err != nil {
		f.fs.mu.Lock()
		f.fs.failed = append(f.fs.failed, append([]byte(nil), p...))
		f.fs.mu.Unlock()
	}
	return n, err
}

// snapshotWrites is a fault.FS that follows every snapshot attempt: the
// bytes written to snapshot.sim2.tmp, and for each write that failed, the
// image up to and including that write and where the write began. A rename
// that would publish a temp file whose write failed is recorded too.
type snapshotWrites struct {
	fault.FS
	mu        sync.Mutex
	image     []byte // the current attempt's writes, failed ones included
	failed    bool   // some write of the current attempt failed
	failures  []snapshotFailure
	published int // renames of a temp file after a failed write
}

type snapshotFailure struct {
	image []byte
	at    int // offset of the failed write in image
}

func (fs *snapshotWrites) OpenFile(name string, flag int, perm os.FileMode) (fault.File, error) {
	f, err := fs.FS.OpenFile(name, flag, perm)
	if err != nil || filepath.Base(name) != snapshotFileName+".tmp" {
		return f, err
	}
	fs.mu.Lock()
	fs.image, fs.failed = nil, false
	fs.mu.Unlock()
	return snapshotWriteFile{f, fs}, nil
}

func (fs *snapshotWrites) Rename(oldpath, newpath string) error {
	fs.mu.Lock()
	if filepath.Base(oldpath) == snapshotFileName+".tmp" && fs.failed {
		fs.published++
	}
	fs.mu.Unlock()
	return fs.FS.Rename(oldpath, newpath)
}

type snapshotWriteFile struct {
	fault.File
	fs *snapshotWrites
}

func (f snapshotWriteFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	at := len(f.fs.image)
	f.fs.image = append(f.fs.image, p...)
	if err != nil {
		f.fs.failed = true
		f.fs.failures = append(f.fs.failures, snapshotFailure{bytes.Clone(f.fs.image), at})
	}
	return n, err
}

// checkFailedInCore fails t unless some snapshot write failed, every failed
// write began inside the CORE section's payload — after its first bytes had
// already been written, before its last — and no attempt with a failed
// write was published.
func (fs *snapshotWrites) checkFailedInCore(t *testing.T) {
	t.Helper()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if len(fs.failures) == 0 {
		t.Fatal("no snapshot write failed")
	}
	for _, f := range fs.failures {
		sr, err := dataio.NewSnapshotReader(bytes.NewReader(f.image))
		if err != nil {
			t.Fatal(err)
		}
		// The image ends inside CORE, so Next cannot return the section:
		// walk the framing by hand past the sections that did complete.
		off := 5 // magic and container version
		for {
			if off+4 > len(f.image) {
				t.Fatalf("failed write at %d lies past the image's sections", f.at)
			}
			tag := string(f.image[off : off+4])
			n, k := binary.Uvarint(f.image[off+4:])
			start := off + 4 + k
			if tag == "CORE" {
				if f.at <= start || f.at >= start+int(n) {
					t.Fatalf("failed write at %d is not inside CORE's payload [%d, %d)", f.at, start, start+int(n))
				}
				break
			}
			if _, _, err := sr.Next(); err != nil {
				t.Fatalf("section %q before CORE: %v", tag, err)
			}
			off = start + int(n) + 4
		}
	}
	if fs.published > 0 {
		t.Fatalf("%d snapshot attempts with a failed write were published", fs.published)
	}
}

// failedNames reports whether a failed write was a record with a names
// trailer.
func (fs *failedWALWrites) failedNames(t *testing.T) bool {
	t.Helper()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for _, frame := range fs.failed {
		n, k := binary.Uvarint(frame[1:])
		rec, err := decodeWALPayload(frame[1+k : 1+k+int(n)])
		if err != nil {
			t.Fatalf("a failed write was not a WAL record: %v", err)
		}
		if len(rec.names) > 0 {
			return true
		}
	}
	return false
}

// TestChaosCrashMatrix drives a durable tracker through a matrix of
// injected single-fault scenarios — WAL writes/syncs failing (full and
// torn), every step of the snapshot dance failing, name-mode appends whose
// record carries new names failing, and rollback failures that poison the
// log outright — while a client retries every retryable rejection. The
// invariants, per cell:
//
//   - every acknowledged batch survives: a kill -9 (directory copy) after
//     the last ack recovers, WITHOUT the injector, to a state identical to
//     an uninterrupted serial replay;
//   - the poisoning cells additionally exercise the self-healing path
//     (degraded-readonly → a retried batch re-arms the log → ingest
//     resumes), visible in the re-arm counter.
func TestChaosCrashMatrix(t *testing.T) {
	compressTimers(t)
	// Rule paths name the exact files (snapshot.sim2, not "snapshot"): the
	// subtest name is part of t.TempDir(), so a loose substring would match
	// every file in the data dir. Boot-time operations on the same files
	// (the recovery open of snapshot.sim2, the torn-tail truncate of wal.log)
	// are skipped with after= so the fault lands on the live path the cell is
	// about.
	cases := []struct {
		name  string
		rules string
		// names makes the tracker name-mode, and the cell must fail the append
		// of a record that carries a names trailer.
		names  bool
		rearms bool // expect the poisoned-log re-arm path to have run
		batch  int  // sim batching: replay must flush where live ingest did
		// tornCrash kills the server mid-append halfway through the stream (a
		// torn record at the WAL's tail) and carries on from the recovered
		// image, with no snapshot taken: everything acknowledged since is in
		// the WAL alone when the final crash comes.
		tornCrash bool
		// midCore: the failed snapshot write must land inside the CORE
		// section, and that attempt must not be published.
		midCore bool
	}{
		{name: "wal-write-eio", rules: "op=write,path=wal.log,after=2,times=1,err=EIO"},
		{name: "wal-write-torn-enospc", rules: "op=write,path=wal.log,after=1,times=2,err=ENOSPC,short"},
		{name: "wal-sync-eio", rules: "op=sync,path=wal.log,after=3,times=2,err=EIO"},
		{name: "wal-poisoned-rollback", rules: "op=write,path=wal.log,after=4,times=1,err=EIO;op=truncate,path=wal.log,after=1,times=1,err=EIO", rearms: true},
		{name: "snapshot-open-eio", rules: "op=open,path=snapshot.sim2,after=1,times=1,err=EIO"},
		{name: "snapshot-write-enospc", rules: "op=write,path=snapshot.sim2,times=2,err=ENOSPC"},
		{name: "snapshot-sync-eio", rules: "op=sync,path=snapshot.sim2,times=1,err=EIO"},
		{name: "snapshot-rename-eio", rules: "op=rename,path=snapshot.sim2,times=1,err=EIO"},
		// The fourth snapshot write, the third snapshot's last (the first two
		// fit the 64 KiB file buffer, one write each), begins at the buffer's
		// first boundary: inside CORE's payload.
		{name: "snapshot-write-midsection", rules: "op=write,path=snapshot.sim2,after=3,times=1,err=EIO", midCore: true},
		{name: "names-write-eio", rules: "op=write,path=wal.log,times=1,err=EIO", names: true},
		{name: "names-poisoned-rollback", rules: "op=write,path=wal.log,times=1,err=EIO;op=truncate,path=wal.log,after=1,times=1,err=EIO", names: true, rearms: true},
		{name: "slow-disk-delay", rules: "op=sync,path=wal.log,times=4,delay=5ms,delayonly"},
		{name: "wal-write-eio-batch7", rules: "op=write,path=wal.log,after=2,times=1,err=EIO", batch: 7},
		// The failed write is the third append after the torn crash: its
		// rollback target must be the cut file's end.
		{name: "wal-torn-tail-double-crash", rules: "op=write,path=wal.log,after=14,times=1,err=EIO", tornCrash: true},
	}
	actions := durableStream(2400)
	numericWant := serialReference(t, actions)
	// Name-mode cells intern external names to dense first-appearance IDs,
	// relabeling the users; their reference replays the same relabeled
	// stream (interning through a tracker's table reproduces it exactly,
	// because the appearance order is identical).
	namedWant := serialReference(t, internStream(actions, intern.New(0)))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := durableSpec
			spec.SnapshotWALBytes = 2048 // several snapshot cycles over the stream
			spec.Names = tc.names
			spec.Batch = tc.batch
			if tc.tornCrash {
				spec.SnapshotWALBytes = 0 // the default threshold: never reached here
			}
			want := numericWant
			if tc.names {
				want = namedWant
			}
			if tc.batch > 1 {
				// Batched answers depend on where the stream is flushed: the
				// reference flushes after each 100-action submit, as live
				// ingest does.
				want = chunkedReference(t, spec, actions, 100)
			}
			rules, err := fault.ParseRules(tc.rules)
			if err != nil {
				t.Fatal(err)
			}
			inj := fault.NewInjector(fault.OS())
			for _, r := range rules {
				inj.Add(r)
			}
			snaps := &snapshotWrites{FS: inj}
			fs := &failedWALWrites{FS: snaps}
			dir := t.TempDir()
			reg := NewRegistry()
			reg.SetFS(fs)
			reg.SetDataDir(dir)
			tr, err := reg.Add("t", spec)
			if err != nil {
				t.Fatal(err)
			}
			for rest := actions; len(rest) > 0; {
				if tc.tornCrash && len(rest) == len(actions)/2 {
					torn := t.TempDir()
					copyTree(t, filepath.Join(dir, "t"), filepath.Join(torn, "t"))
					tearWALTail(t, filepath.Join(torn, "t", walFileName))
					if err := reg.Close(); err != nil {
						t.Fatal(err)
					}
					dir, reg = torn, NewRegistry()
					reg.SetFS(fs)
					reg.SetDataDir(dir)
					if tr, err = reg.Add("t", spec); err != nil {
						t.Fatalf("recovery with torn WAL tail: %v", err)
					}
				}
				n := min(100, len(rest))
				batch := rest[:n]
				if tc.names {
					// Mirror the HTTP handler: intern external names to the
					// dense IDs the tracker and WAL operate on.
					batch = internStream(batch, tr.Names())
				}
				submitRetry(t, tr, batch)
				rest = rest[n:]
			}
			if inj.Fired() == 0 {
				t.Fatalf("no fault fired; the %s cell is vacuous", tc.name)
			}
			if tc.names && !fs.failedNames(t) {
				t.Fatal("no failed WAL append carried a names trailer; the cell tests the numeric path")
			}
			if tc.midCore {
				snaps.checkFailedInCore(t)
			}
			if tc.rearms {
				if tr.Metrics().WALRearms == 0 {
					t.Error("poisoning cell never exercised the re-arm path")
				}
			}
			checkAnswer(t, "live under faults", tr.Snapshot(), want)

			// kill -9 after the final ack: recover the copied directory with
			// a clean filesystem and compare against the serial replay.
			crashDir := t.TempDir()
			copyTree(t, filepath.Join(dir, "t"), filepath.Join(crashDir, "t"))
			if err := reg.Close(); err != nil {
				t.Fatal(err)
			}
			reg2 := NewRegistry()
			reg2.SetDataDir(crashDir)
			tr2, err := reg2.Add("t", spec)
			if err != nil {
				t.Fatalf("crash recovery: %v", err)
			}
			defer reg2.Close()
			checkAnswer(t, "chaos-recovered", tr2.Snapshot(), want)
		})
	}
}

// TestChaosSpillMatrix extends the crash matrix to the cold tier: a durable
// tracker under a tight memory budget spills segment files continuously
// while injected faults hit every step of the spill write (temp-file open,
// torn data write, fsync, the publishing rename, the read-back verification)
// and both steps of a cold read (the lazy open of a segment's descriptor, a
// read on a descriptor already open). The invariants, per cell:
//
//   - the faults land where the cell's name says: each row states how many
//     failed spills and failed cold reads it causes, and the tier's counters
//     must agree;
//   - spill-write faults are correctness-neutral by design — the logs stay
//     hot;
//   - a cold-READ fault degrades the answers read while it is live to the
//     hot tier's entries, the extent stays cold, and the next read goes
//     through a fresh descriptor. The rules fire within the first few hundred
//     actions, so every checkpoint fed a degraded set has left the window by
//     the end of the stream;
//   - hence in every cell both the live answer and the kill -9 recovery
//     match an unbudgeted serial replay bit for bit.
func TestChaosSpillMatrix(t *testing.T) {
	compressTimers(t)
	// "spill/seg-" scopes the rules to segment files under the tracker's
	// spill directory (<data-dir>/t/spill), away from wal.log and
	// snapshot.sim2. op=open counts a spill's temp-file create and a
	// segment's lazy read open alike: the first open is the first spill's.
	cases := []struct {
		name                string
		rules               string
		spillErrs, readErrs int64
	}{
		{name: "spill-open-eio", rules: "op=open,path=spill/seg-,times=3,err=EIO", spillErrs: 3},
		{name: "spill-write-torn-enospc", rules: "op=write,path=spill/seg-,times=2,err=ENOSPC,short", spillErrs: 2},
		{name: "spill-sync-eio", rules: "op=sync,path=spill/seg-,times=1,err=EIO", spillErrs: 1},
		{name: "spill-rename-eio", rules: "op=rename,path=spill/seg-,times=1,err=EIO", spillErrs: 1},
		{name: "spill-readback-eio", rules: "op=readfile,path=spill/seg-,times=1,err=EIO", spillErrs: 1},
		{name: "cold-read-eio", rules: "op=open,path=spill/seg-,after=1,times=3,err=EIO", readErrs: 3},
		{name: "cold-read-eio-open-handle", rules: "op=read,path=spill/seg-,after=50,times=3,err=EIO", readErrs: 3},
	}
	actions := durableStream(2400)
	want := serialReference(t, actions)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rules, err := fault.ParseRules(tc.rules)
			if err != nil {
				t.Fatal(err)
			}
			inj := fault.NewInjector(fault.OS())
			for _, r := range rules {
				inj.Add(r)
			}
			dir := t.TempDir()
			reg := NewRegistry()
			reg.SetFS(inj)
			reg.SetDataDir(dir)
			spec := durableSpec
			spec.SnapshotWALBytes = 2048
			spec.MemoryBudgetBytes = 4096 // 256 hot entries: spills constantly
			tr, err := reg.Add("t", spec)
			if err != nil {
				t.Fatal(err)
			}
			for rest := actions; len(rest) > 0; {
				n := min(100, len(rest))
				submitRetry(t, tr, rest[:n])
				rest = rest[n:]
			}
			var tier stream.TierStats
			if err := tr.Query(context.Background(), func(st *sim.Tracker) {
				tier = st.Internal().Stream().TierStats()
			}); err != nil {
				t.Fatal(err)
			}
			if tier.Spills == 0 {
				t.Fatalf("budget never spilled; the cell exercised nothing (%+v)", tier)
			}
			if tier.SpillErrs != tc.spillErrs || tier.ColdReadErrs != tc.readErrs {
				t.Fatalf("the rule fired somewhere else: %d failed spills and %d failed cold reads, want %d and %d",
					tier.SpillErrs, tier.ColdReadErrs, tc.spillErrs, tc.readErrs)
			}
			checkAnswer(t, "live under spill faults", tr.Snapshot(), want)
			// A failed cold read, whose answer fell back to the hot tier,
			// stays listed under "degraded" until the tracker restarts; a
			// failed spill only until a later spill succeeds, as every
			// spill row's later spills do.
			h := probeHealth(t, reg)
			if tc.readErrs > 0 && (h.Status != "degraded" || !strings.HasPrefix(h.Degraded["t"], "cold tier: ")) ||
				tc.readErrs == 0 && h.Status != "ok" {
				t.Fatalf("/v1/healthz after %d failed spills and %d failed cold reads: %+v", tier.SpillErrs, tier.ColdReadErrs, h)
			}

			// kill -9 after the final ack: recover the copied directory with
			// a clean filesystem.
			crashDir := t.TempDir()
			copyTree(t, filepath.Join(dir, "t"), filepath.Join(crashDir, "t"))
			if err := reg.Close(); err != nil {
				t.Fatal(err)
			}
			reg2 := NewRegistry()
			reg2.SetDataDir(crashDir)
			tr2, err := reg2.Add("t", spec)
			if err != nil {
				t.Fatalf("crash recovery: %v", err)
			}
			defer reg2.Close()
			checkAnswer(t, "spill-chaos-recovered", tr2.Snapshot(), want)
			if h := probeHealth(t, reg2); h.Status != "ok" {
				t.Fatalf("/v1/healthz after recovery on a clean disk: %+v", h)
			}
		})
	}
}

// probeHealth answers GET /v1/healthz from a Server over reg.
func probeHealth(t *testing.T, reg *Registry) api.HealthResponse {
	t.Helper()
	rec := httptest.NewRecorder()
	New(reg).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/healthz", nil))
	var h api.HealthResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	return h
}

// TestColdReadFailureInQueryShowsOnHealth: a cold read that fails inside a
// gate query (/influence of a user outside the candidate pool) degrades
// /v1/healthz at once, not only after the next ingested batch publishes.
func TestColdReadFailureInQueryShowsOnHealth(t *testing.T) {
	inj := fault.NewInjector(fault.OS())
	reg := NewRegistry()
	reg.SetFS(inj)
	reg.SetDataDir(t.TempDir())
	defer reg.Close()
	spec := durableSpec
	spec.MemoryBudgetBytes = 4096
	tr, err := reg.Add("t", spec)
	if err != nil {
		t.Fatal(err)
	}
	submitChunks(t, tr, durableStream(2400), 100)
	if h := probeHealth(t, reg); h.Status != "ok" {
		t.Fatalf("/v1/healthz before the fault: %+v", h)
	}
	inj.Add(fault.Rule{Op: fault.OpRead, Path: "spill/seg-", Times: 1, Err: errEIO})
	var readErrs int64
	if err := tr.Query(context.Background(), func(st *sim.Tracker) {
		for u := range sim.UserID(400) {
			st.InfluenceSet(u)
		}
		readErrs = st.Internal().Stream().TierStats().ColdReadErrs
	}); err != nil {
		t.Fatal(err)
	}
	if readErrs != 1 {
		t.Fatalf("%d failed cold reads, want the one the rule causes", readErrs)
	}
	if h := probeHealth(t, reg); h.Status != "degraded" || !strings.HasPrefix(h.Degraded["t"], "cold tier: ") {
		t.Fatalf("/v1/healthz after a failed cold read in a query: %+v", h)
	}
}

// TestFailedSpillClearsOnHealth: a failed spill lists the tracker under
// "degraded" only until a later spill succeeds — the logs stayed hot and
// every answer exact, so a transient disk fault must not hold the tracker
// degraded until restart. Actions go in one per batch, so that the health
// probe falls between the failure and the retry.
func TestFailedSpillClearsOnHealth(t *testing.T) {
	inj := fault.NewInjector(fault.OS())
	reg := NewRegistry()
	reg.SetFS(inj)
	reg.SetDataDir(t.TempDir())
	defer reg.Close()
	spec := durableSpec
	spec.MemoryBudgetBytes = 4096
	tr, err := reg.Add("t", spec)
	if err != nil {
		t.Fatal(err)
	}
	actions := durableStream(2400)
	submitChunks(t, tr, actions[:1000], 100)
	tier := func() (ts stream.TierStats) {
		if err := tr.Query(context.Background(), func(st *sim.Tracker) { ts = st.Internal().Stream().TierStats() }); err != nil {
			t.Fatal(err)
		}
		return ts
	}
	if ts := tier(); ts.Spills == 0 {
		t.Fatalf("budget never spilled: %+v", ts)
	}
	inj.Add(fault.Rule{Op: fault.OpRename, Path: "spill/seg-", Times: 1, Err: errEIO})
	rest := actions[1000:]
	next := func() {
		if len(rest) == 0 {
			t.Fatal("the stream ran out")
		}
		submitChunks(t, tr, rest[:1], 1)
		rest = rest[1:]
	}
	for tier().SpillErrs == 0 {
		next()
	}
	spills := tier().Spills
	if h := probeHealth(t, reg); h.Status != "degraded" || !strings.HasPrefix(h.Degraded["t"], "cold tier: ") {
		t.Fatalf("/v1/healthz after a failed spill: %+v", h)
	}
	for tier().Spills == spills {
		next()
	}
	if h := probeHealth(t, reg); h.Status != "ok" {
		t.Fatalf("/v1/healthz after a later spill succeeded: %+v", h)
	}
}

// TestChaosKillMidSpill emulates a kill -9 in the middle of a spill pass:
// the copied data directory is salted with everything such a crash can leave
// in the spill directory — a torn seg-*.tmp, a fully published orphan
// segment no snapshot references, and a corrupted segment file. Recovery
// must map the snapshot's segments, replay the WAL tail, answer identically
// to a serial replay, and garbage-collect all three strays at boot.
func TestChaosKillMidSpill(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry()
	reg.SetDataDir(dir)
	spec := durableSpec
	spec.SnapshotWALBytes = 2048
	spec.MemoryBudgetBytes = 4096
	tr, err := reg.Add("t", spec)
	if err != nil {
		t.Fatal(err)
	}
	actions := durableStream(2400)
	submitChunks(t, tr, actions, 100)
	if snap := tr.Snapshot(); snap.Spills == 0 || snap.ColdUsers == 0 {
		t.Fatalf("budget never built a cold tier: %+v", snap)
	}

	crashDir := t.TempDir()
	copyTree(t, filepath.Join(dir, "t"), filepath.Join(crashDir, "t"))
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}

	// Salt the copied spill directory. The orphan is written through the
	// real segment writer (valid file, correct ID header, zero snapshot
	// references); the torn .tmp and the corrupted segment are raw damage.
	spillDir := filepath.Join(crashDir, "t", "spill")
	st, err := dataio.OpenSegmentStore(fault.OS(), spillDir)
	if err != nil {
		t.Fatal(err)
	}
	orphanExts, err := st.WriteLogs([][]stream.Contrib{{{V: 1, T: 99}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(spillDir, dataio.SegmentFileName(orphanExts[0].Seg))
	torn := filepath.Join(spillDir, "seg-999999.sim2.tmp")
	if err := os.WriteFile(torn, []byte("SIM2\x01SG"), 0o644); err != nil {
		t.Fatal(err)
	}
	corrupt := filepath.Join(spillDir, "seg-999998.sim2")
	if err := os.WriteFile(corrupt, []byte("SIM2\x01 garbage segment"), 0o644); err != nil {
		t.Fatal(err)
	}

	reg2 := NewRegistry()
	reg2.SetDataDir(crashDir)
	tr2, err := reg2.Add("t", spec)
	if err != nil {
		t.Fatalf("recovery over salted spill dir: %v", err)
	}
	defer reg2.Close()
	snap2 := tr2.Snapshot()
	checkAnswer(t, "mid-spill-recovered", snap2, serialReference(t, actions))
	if snap2.ColdUsers == 0 {
		t.Fatalf("recovery rehydrated the cold tier instead of mapping it: %+v", snap2)
	}
	for _, stray := range []string{orphan, torn, corrupt} {
		if _, err := os.Stat(stray); !os.IsNotExist(err) {
			t.Errorf("stray %s survived boot GC (%v)", filepath.Base(stray), err)
		}
	}

	// The recovered tracker keeps serving under the same budget.
	more := durableStream(2600)[2400:]
	submitChunks(t, tr2, more, 100)
	checkAnswer(t, "post-recovery ingest", tr2.Snapshot(), serialReference(t, durableStream(2600)))
}

// TestChaosKillTwiceAcrossRespill is the double-crash row of the spill
// matrix: spill and snapshot, kill -9, recover by replaying a WAL tail long
// enough to re-spill — which retires segments the on-disk snapshot still
// names — then kill -9 again before any new snapshot covers the change. The
// second recovery loads that same snapshot, so every segment it names must
// have survived the first recovery's boot GC; it must boot and equal the
// uninterrupted reference.
func TestChaosKillTwiceAcrossRespill(t *testing.T) {
	actions := durableStream(2400)
	spec := durableSpec
	spec.MemoryBudgetBytes = 4096
	spec.SnapshotWALBytes = 2048

	// Life 1: spill under frequent snapshots, so the last snapshot names
	// cold segments.
	dir := t.TempDir()
	reg := NewRegistry()
	reg.SetDataDir(dir)
	tr, err := reg.Add("t", spec)
	if err != nil {
		t.Fatal(err)
	}
	submitChunks(t, tr, actions[:1200], 100)
	if snap := tr.Snapshot(); snap.Spills == 0 || snap.ColdUsers == 0 {
		t.Fatalf("budget never built a cold tier: %+v", snap)
	}
	crash1 := t.TempDir()
	copyTree(t, filepath.Join(dir, "t"), filepath.Join(crash1, "t"))
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}

	// Life 2: never snapshots, so its whole ingest stays a WAL tail on top
	// of life 1's snapshot.
	spec.SnapshotWALBytes = 1 << 30
	reg2 := NewRegistry()
	reg2.SetDataDir(crash1)
	tr2, err := reg2.Add("t", spec)
	if err != nil {
		t.Fatalf("first recovery: %v", err)
	}
	submitChunks(t, tr2, actions[1200:], 100)
	crash2 := t.TempDir()
	copyTree(t, filepath.Join(crash1, "t"), filepath.Join(crash2, "t"))
	if err := reg2.Close(); err != nil {
		t.Fatal(err)
	}

	// Life 3: replays that tail, re-spilling as it goes, and is killed
	// straight after boot.
	reg3 := NewRegistry()
	reg3.SetDataDir(crash2)
	tr3, err := reg3.Add("t", spec)
	if err != nil {
		t.Fatalf("second recovery: %v", err)
	}
	want := serialReference(t, actions)
	snap3 := tr3.Snapshot()
	checkAnswer(t, "recovered across the re-spill", snap3, want)
	files, err := filepath.Glob(filepath.Join(crash2, "t", "spill", "seg-*.sim2"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) <= snap3.ColdSegments {
		t.Fatalf("replay retired no segment (%d files, %d live); the row is vacuous", len(files), snap3.ColdSegments)
	}
	crash3 := t.TempDir()
	copyTree(t, filepath.Join(crash2, "t"), filepath.Join(crash3, "t"))
	if err := reg3.Close(); err != nil {
		t.Fatal(err)
	}

	// Life 4: the same snapshot and WAL again.
	reg4 := NewRegistry()
	reg4.SetDataDir(crash3)
	tr4, err := reg4.Add("t", spec)
	if err != nil {
		t.Fatalf("recovery after the second kill: %v", err)
	}
	defer reg4.Close()
	checkAnswer(t, "recovered after the second kill", tr4.Snapshot(), want)
}

// TestChaosCorruptReferencedSegment flips bytes in every cold segment of a
// crash image: a snapshot that references a now-corrupt segment must fail
// recovery loudly instead of serving silently wrong influence data.
func TestChaosCorruptReferencedSegment(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry()
	reg.SetDataDir(dir)
	spec := durableSpec
	spec.SnapshotWALBytes = 2048
	spec.MemoryBudgetBytes = 4096
	tr, err := reg.Add("t", spec)
	if err != nil {
		t.Fatal(err)
	}
	submitChunks(t, tr, durableStream(2400), 100)
	if snap := tr.Snapshot(); snap.ColdUsers == 0 {
		t.Fatalf("no cold tier to corrupt: %+v", snap)
	}
	crashDir := t.TempDir()
	copyTree(t, filepath.Join(dir, "t"), filepath.Join(crashDir, "t"))
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}

	spillDir := filepath.Join(crashDir, "t", "spill")
	segs, err := filepath.Glob(filepath.Join(spillDir, "seg-*.sim2"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segment files in crash image (%v)", err)
	}
	for _, path := range segs {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)/2] ^= 0x40
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	reg2 := NewRegistry()
	reg2.SetDataDir(crashDir)
	if _, err := reg2.Add("t", spec); err == nil {
		reg2.Close()
		t.Fatal("recovery served a snapshot whose cold segments are corrupt")
	}
}

// TestDegradedReadOnlyMode pins the full degraded-mode contract over HTTP:
// a poisoned WAL flips the tracker to degraded-readonly, where ingest gets
// 503 + Retry-After but snapshot reads, queries and metrics keep answering;
// once the disk heals the next ingest re-arms the log and is applied, with
// nothing lost.
func TestDegradedReadOnlyMode(t *testing.T) {
	compressTimers(t)
	inj := fault.NewInjector(fault.OS())
	reg := NewRegistry()
	reg.SetFS(inj)
	reg.SetDataDir(t.TempDir())
	tr, err := reg.Add("default", durableSpec)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	srv := httptest.NewServer(New(reg))
	defer srv.Close()
	client := api.NewClient(srv.URL)
	ctx := context.Background()

	actions := durableStream(500)
	submitChunks(t, tr, actions[:400], 100)
	want := tr.Snapshot()

	// Sticky faults: appends fail, rollbacks fail (poisoning the log) and
	// re-opens fail, so re-arm attempts cannot succeed until the heal.
	inj.Add(fault.Rule{Op: fault.OpWrite, Path: walFileName, Err: errEIO})
	inj.Add(fault.Rule{Op: fault.OpTruncate, Path: walFileName, Err: errEIO})
	inj.Add(fault.Rule{Op: fault.OpOpen, Path: walFileName, Err: errEIO})

	if _, err := tr.Submit(ctx, actions[400:420]); !errors.Is(err, ErrDurability) {
		t.Fatalf("poisoning submit: err = %v, want ErrDurability", err)
	}
	if st := tr.State(); st != StateDegradedReadOnly {
		t.Fatalf("state after poisoning = %v, want degraded-readonly", st)
	}

	// Ingest: 503 + Retry-After, batch not applied.
	_, err = client.Ingest(ctx, "default", actions[400:420])
	var apiErr *api.Error
	if !errors.As(err, &apiErr) || apiErr.Code != http.StatusServiceUnavailable {
		t.Fatalf("degraded ingest: %v, want 503", err)
	}
	if apiErr.RetryAfter <= 0 {
		t.Fatalf("degraded 503 carried no Retry-After (%+v)", apiErr)
	}
	if !apiErr.Temporary() {
		t.Fatal("degraded 503 not Temporary()")
	}
	// The body is read before the batch meets the poisoned log: a malformed
	// one is refused as anywhere, an empty one has nothing to refuse.
	for _, c := range []struct {
		body string
		code int
	}{{"not json\n", http.StatusBadRequest}, {"", http.StatusOK}} {
		resp, err := http.Post(srv.URL+"/v1/trackers/default/actions", "application/x-ndjson", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.code {
			t.Fatalf("degraded ingest of %q: %d, want %d", c.body, resp.StatusCode, c.code)
		}
	}

	// Reads and queries keep answering from the published snapshot.
	seeds, err := client.Seeds(ctx, "default")
	if err != nil || seeds.Processed != want.Processed {
		t.Fatalf("degraded seeds read: %+v, %v", seeds, err)
	}
	if _, err := client.Snapshot(ctx, "default"); err != nil {
		t.Fatalf("degraded snapshot read: %v", err)
	}

	// Health and metrics surface the condition.
	h, err := client.Health(ctx)
	if err != nil || h.Status != "degraded" || h.States["default"] == "" {
		t.Fatalf("degraded health: %+v, %v", h, err)
	}
	m, err := client.TrackerMetrics(ctx, "default")
	if err != nil || m.State == "ok" {
		t.Fatalf("degraded metrics: %+v, %v", m, err)
	}

	// Heal the disk: the client's next retry must re-arm the WAL and be
	// applied, with no restart and no operator step.
	inj.Clear()
	var resp api.IngestResponse
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err = client.Ingest(ctx, "default", actions[400:500])
		if err == nil {
			break
		}
		if !errors.As(err, &apiErr) || !apiErr.Temporary() {
			t.Fatalf("post-heal ingest: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("tracker never re-armed: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if resp.Processed != 500 {
		t.Fatalf("post-heal processed = %d, want 500", resp.Processed)
	}
	if st := tr.State(); st != StateOK {
		t.Fatalf("state after heal = %v, want ok", st)
	}
	if tr.Metrics().WALRearms == 0 {
		t.Fatal("re-arm counter stayed 0 after a successful recovery")
	}
	if h, err := client.Health(ctx); err != nil || h.Status != "ok" || len(h.States) != 0 {
		t.Fatalf("post-heal health: %+v, %v", h, err)
	}
	checkAnswer(t, "post-heal state", tr.Snapshot(), serialReference(t, actions))

	// The re-armed state is durable: a restart recovers it.
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	reg2 := NewRegistry()
	reg2.SetDataDir(reg.DataDir())
	tr2, err := reg2.Add("default", durableSpec)
	if err != nil {
		t.Fatalf("recovery after re-arm: %v", err)
	}
	defer reg2.Close()
	checkAnswer(t, "recovered after re-arm", tr2.Snapshot(), serialReference(t, actions))
}

// TestIngestWALFailure503 pins the transient-fault contract: a WAL append
// failure whose rollback succeeds is a 503 (retryable, batch not applied,
// log intact) — not a 500 and not a poisoning — and the very next attempt
// lands.
func TestIngestWALFailure503(t *testing.T) {
	inj := fault.NewInjector(fault.OS())
	inj.Add(fault.Rule{Op: fault.OpWrite, Path: walFileName, Times: 1, Err: errEIO})
	reg := NewRegistry()
	reg.SetFS(inj)
	reg.SetDataDir(t.TempDir())
	tr, err := reg.Add("default", durableSpec)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	srv := httptest.NewServer(New(reg))
	defer srv.Close()
	ctx := context.Background()
	client := api.NewClient(srv.URL)

	actions := durableStream(100)
	_, err = client.Ingest(ctx, "default", actions)
	var apiErr *api.Error
	if !errors.As(err, &apiErr) || apiErr.Code != http.StatusServiceUnavailable {
		t.Fatalf("WAL-failed ingest: %v, want 503", err)
	}
	if tr.State() != StateOK {
		t.Fatalf("clean rollback must not degrade the tracker (state %v)", tr.State())
	}
	if got := tr.Snapshot().Processed; got != 0 {
		t.Fatalf("rejected batch partially applied: processed = %d", got)
	}
	resp, err := client.Ingest(ctx, "default", actions) // the fault healed
	if err != nil || resp.Processed != 100 {
		t.Fatalf("retry after WAL failure: %+v, %v", resp, err)
	}
	// The client's own retry loop closes the same gap in one call.
	rc := api.NewClient(srv.URL)
	rc.Retry = api.RetryPolicy{MaxRetries: 3, MinBackoff: time.Millisecond}
	inj.Add(fault.Rule{Op: fault.OpWrite, Path: walFileName, Times: 1, Err: errEIO})
	resp, err = rc.Ingest(ctx, "default", durableStream(200)[100:])
	if err != nil || resp.Processed != 200 {
		t.Fatalf("client retry over WAL failure: %+v, %v", resp, err)
	}
}

// TestAdmissionControlSheds wedges a tracker's gate and asserts the
// enqueue deadline sheds further work quickly — ErrOverloaded at the API,
// 429 + Retry-After over HTTP — instead of hanging every producer.
func TestAdmissionControlSheds(t *testing.T) {
	reg := NewRegistry()
	ShrinkQueue(t, 1, 50*time.Millisecond)
	tr, err := reg.Add("default", durableSpec)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	srv := httptest.NewServer(New(reg))
	defer srv.Close()
	ctx := context.Background()

	// Wedge the gate: a query closure that blocks until released.
	release := make(chan struct{})
	queryDone := parkGate(tr, release)

	// Fill the (capacity 1) queue behind the wedged gate.
	batch := durableStream(10)
	filled := make(chan error, 1)
	go func() {
		_, err := tr.Submit(ctx, batch)
		filled <- err
	}()
	waitDepth(t, tr, 1)

	// Now the queue is full and the consumer is stuck: Submit must shed
	// within the deadline, not hang for the caller's lifetime.
	begin := time.Now()
	_, err = tr.Submit(ctx, durableStream(20)[10:])
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("overloaded Submit: err = %v, want ErrOverloaded", err)
	}
	if waited := time.Since(begin); waited > 2*time.Second {
		t.Fatalf("shedding took %v; deadline is 50ms", waited)
	}

	// Same over HTTP: 429 with a Retry-After hint.
	client := api.NewClient(srv.URL)
	_, err = client.Ingest(ctx, "default", durableStream(20)[10:])
	var apiErr *api.Error
	if !errors.As(err, &apiErr) || apiErr.Code != http.StatusTooManyRequests {
		t.Fatalf("overloaded ingest: %v, want 429", err)
	}
	if apiErr.RetryAfter <= 0 || !apiErr.Temporary() {
		t.Fatalf("429 without retry semantics: %+v", apiErr)
	}

	close(release)
	if err := <-queryDone; err != nil {
		t.Fatalf("wedge query: %v", err)
	}
	if err := <-filled; err != nil {
		t.Fatalf("filling queue: %v", err)
	}

	// The shed bookkeeping surfaced, and the queued batch was not lost.
	m := tr.Metrics()
	shed, highWater := m.ShedRequests, m.QueueDepthHighWater
	if shed < 2 {
		t.Fatalf("shed counter = %d, want >= 2", shed)
	}
	if highWater < 1 {
		t.Fatalf("queue high-water = %d, want >= 1", highWater)
	}
	deadline := time.Now().Add(5 * time.Second)
	for tr.Snapshot().Processed != int64(len(batch)) {
		if time.Now().After(deadline) {
			t.Fatalf("queued batch lost: processed = %d", tr.Snapshot().Processed)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTornWALRecordDropsFreshName crashes a name-mode tracker mid-append of
// a WAL record that carries names no earlier record holds: the recovered
// table must not have them — nothing acknowledged references them — and
// ingesting the batch again interns them to the IDs they had.
func TestTornWALRecordDropsFreshName(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry()
	reg.SetDataDir(dir)
	spec := durableSpec
	spec.Names = true
	tr, err := reg.Add("t", spec)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	actions := durableStream(600)
	submitChunks(t, tr, internStream(actions[:500], tr.Names()), 100)
	want, before := *tr.Snapshot(), tr.Names().Len()
	submitChunks(t, tr, internStream(actions[500:], tr.Names()), 100)
	if tr.Names().Len() == before {
		t.Fatal("the last batch interned no name; the test is vacuous")
	}
	fresh, _ := tr.Names().Name(uint32(before))

	// The last record, torn: its CRC never made it to disk.
	crashDir := t.TempDir()
	copyTree(t, filepath.Join(dir, "t"), filepath.Join(crashDir, "t"))
	wal := filepath.Join(crashDir, "t", walFileName)
	st, err := os.Stat(wal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(wal, st.Size()-2); err != nil {
		t.Fatal(err)
	}

	reg2 := NewRegistry()
	reg2.SetDataDir(crashDir)
	tr2, err := reg2.Add("t", spec)
	if err != nil {
		t.Fatalf("recovery with a torn names record: %v", err)
	}
	defer reg2.Close()
	checkAnswer(t, "torn names record", tr2.Snapshot(), want)
	if got := tr2.Names().Len(); got != before {
		t.Fatalf("recovered table has %d names, %d were acknowledged", got, before)
	}
	if _, ok := tr2.Names().Lookup(fresh); ok {
		t.Fatalf("recovered table holds %q, named only by the torn record", fresh)
	}

	submitChunks(t, tr2, internStream(actions[500:], tr2.Names()), 100)
	if id, _ := tr2.Names().Lookup(fresh); id != uint32(before) {
		t.Fatalf("re-ingest interned %q at %d, it had %d", fresh, id, before)
	}
	checkAnswer(t, "re-ingest after the torn record", tr2.Snapshot(), serialReference(t, internStream(actions, intern.New(0))))
}

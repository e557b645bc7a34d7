package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/intern"
	"repro/internal/dataio"
	"repro/internal/fault"
	"repro/internal/wire"
	"repro/sim"
)

// Durability of a served tracker: an in-memory hot path paired with a
// write-ahead log and periodic SIM2 snapshots, the standard
// snapshot-plus-log recovery design of production stream systems.
//
// Layout of a tracker's data directory (<registry data dir>/<name>/):
//
//	snapshot.sim2       latest complete snapshot (sim.Tracker.SaveTo)
//	snapshot.sim2.tmp   in-flight snapshot write; never loaded
//	wal.log             batches applied since that snapshot (see wal.go)
//
// Write path (all on the tracker's single-writer ingest loop): every batch
// is appended to the WAL and fsynced BEFORE it is applied and the refreshed
// snapshot published — an acknowledged action is on disk, so a kill -9
// mid-ingest loses nothing acknowledged. Once the WAL exceeds its size
// threshold the loop writes a fresh snapshot to snapshot.sim2.tmp, fsyncs,
// atomically renames it over snapshot.sim2 and truncates the WAL. A crash
// between rename and truncate only leaves WAL entries the snapshot already
// covers; recovery skips them by ID.
//
// Every disk touch goes through the fault.FS seam, so tests and the chaos
// smoke can fail any single operation deterministically.
//
// Failure handling is self-healing rather than fail-stop:
//
//   - A failed snapshot write degrades durability (WAL keeps growing) but
//     retries with capped exponential backoff + jitter instead of
//     re-attempting on every batch; /v1/healthz reports the condition and
//     the retry counter until a write succeeds.
//   - A failed WAL append rejects the batch (503, retryable: the in-memory
//     state never runs ahead of the log) after rolling the partial record
//     back out of the log. Only a rollback that itself fails poisons the
//     log; the tracker then enters degraded-readonly mode (reads keep
//     serving, ingest sheds with 503 + Retry-After) and a periodic probe
//     re-arms the WAL — fresh covering snapshot, log recreated empty — once
//     the disk heals.
//   - names.log appends get the same rollback treatment: a partial name
//     record is truncated back out so a retry cannot append after junk.
//
// Recovery (tracker construction): load snapshot.sim2 if present, then
// replay wal.log — skipping batches whose newest ID is not beyond the
// snapshot — through the same ProcessAll path the live loop uses, so a
// batch that was partially rejected live (stream-order conflict) replays to
// the identical partially-applied state. One WAL record is one flush
// boundary: the live loop and replay apply a record through the same
// applyRecord, which flushes sim-level batching (Spec.Batch > 1) behind it,
// so the recovered tracker is the uninterrupted one at any batch size —
// provided it restarts with the same Batch. A torn WAL tail (the crash's unacknowledged in-flight
// append) is dropped by the frame parser.
const (
	snapshotFileName = "snapshot.sim2"
	snapshotTempName = "snapshot.sim2.tmp"
	walFileName      = "wal.log"
	namesFileName    = "names.log"
	lockFileName     = ".lock"
)

// DefaultSnapshotWALBytes is the WAL size that triggers a snapshot+truncate
// when the Spec does not set one.
const DefaultSnapshotWALBytes int64 = 4 << 20

// Snapshot-retry backoff bounds: after a failed snapshot write the next
// attempt waits base, then 2·base, … capped at max, each with ±50% jitter.
// Package variables so the chaos tests can compress time.
var (
	snapshotBackoffBase = 500 * time.Millisecond
	snapshotBackoffMax  = 30 * time.Second
)

// ErrDurability wraps disk failures of the durable path (WAL and names-log
// appends). Batches rejected with it were NOT applied: the in-memory state
// never runs ahead of the log. The condition is transient — the log was
// rolled back to its pre-append state — so callers may retry (HTTP: 503 +
// Retry-After).
var ErrDurability = errors.New("server: durability failure")

// RecoveryInfo summarizes what a durable tracker's boot recovered.
type RecoveryInfo struct {
	// SnapshotLoaded reports whether a snapshot file was restored.
	SnapshotLoaded bool
	// SnapshotProcessed is the tracker's accepted-action count immediately
	// after the snapshot load (0 without a snapshot).
	SnapshotProcessed int64
	// WALBatches / WALActions count the log records replayed on top.
	WALBatches, WALActions int
}

// durability is the per-tracker durable state, owned — like the tracker
// itself — by the single-writer ingest loop after construction.
type durability struct {
	dir      string
	fs       fault.FS
	lock     fault.File // exclusive data-dir flock, held for the tracker's lifetime
	wal      *wal
	walLimit int64
	// namesFile / namesPersisted persist a name-mode tracker's intern table
	// as an append-only log of length-prefixed names in ID order (names.log).
	// Unlike the WAL it is never truncated: it IS the authoritative name→ID
	// mapping, append-only by construction since IDs are dense and stable.
	// Nil for numeric-ID trackers. namesSize is the byte offset after the
	// last successful append (the rollback target); namesBroken records an
	// append whose rollback also failed — junk is on disk, so appends are
	// refused until namesRearm truncates it away.
	namesFile      fault.File
	namesPersisted int
	namesSize      int64
	namesBroken    error

	// snapErr publishes the most recent snapshot failure (reported via
	// /v1/healthz as a degraded-durability signal: the WAL keeps growing
	// and every reboot replays more, so an operator must hear about it;
	// appends failing is surfaced per-request instead). Written only by
	// the ingest loop, read by the HTTP health handler — hence atomic.
	// Holds a string; empty means healthy.
	snapErr atomic.Value
	// snapRetries counts failed snapshot attempts; rearms counts poisoned-
	// WAL recoveries. Loop-written, handler-read.
	snapRetries atomic.Int64
	rearms      atomic.Int64

	// backoff / nextAttempt gate snapshot retries (loop-owned): after a
	// failure no new attempt is made before nextAttempt.
	backoff     time.Duration
	nextAttempt time.Time
	rng         *rand.Rand
}

// recoverTracker rebuilds a tracker from dir (snapshot + WAL replay) and
// returns it with the open durable state. With no prior files it starts
// fresh. A snapshot that exists but fails to load is a hard error: silently
// starting empty would masquerade as data loss.
func recoverTracker(fs fault.FS, dir string, cfg sim.Config, walLimit int64, names *intern.Table) (*sim.Tracker, *durability, RecoveryInfo, error) {
	if fs == nil {
		fs = fault.OS()
	}
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, RecoveryInfo{}, fmt.Errorf("server: creating data dir: %w", err)
	}
	lock, err := lockDataDir(fs, dir)
	if err != nil {
		return nil, nil, RecoveryInfo{}, err
	}
	recovered := false
	defer func() {
		if !recovered {
			lock.Close() // releases the flock on every error path
		}
	}()
	// A leftover temp snapshot is an interrupted write; the real file (if
	// any) is the authoritative one.
	_ = fs.Remove(filepath.Join(dir, snapshotTempName))

	var (
		tr   *sim.Tracker
		info RecoveryInfo
	)
	snapPath := filepath.Join(dir, snapshotFileName)
	if f, oerr := fs.OpenFile(snapPath, os.O_RDONLY, 0); oerr == nil {
		tr, err = sim.Load(f, cfg)
		f.Close()
		if err != nil {
			return nil, nil, info, fmt.Errorf("server: loading %s: %w", snapPath, err)
		}
		info.SnapshotLoaded = true
		info.SnapshotProcessed = tr.Processed()
	} else if !errors.Is(oerr, os.ErrNotExist) {
		return nil, nil, info, fmt.Errorf("server: opening snapshot: %w", oerr)
	} else if tr, err = sim.New(cfg); err != nil {
		return nil, nil, info, err
	}

	// Before replay, while the tracker references exactly the segments the
	// snapshot names.
	if err := collectStrays(tr); err != nil {
		return nil, nil, info, err
	}

	last := tr.LastID()
	info.WALBatches, info.WALActions, err = replayWAL(fs, filepath.Join(dir, walFileName), func(batch []sim.Action) error {
		// Skip records entirely covered by the snapshot (the crash-window
		// leftovers between snapshot rename and WAL truncate). Snapshots are
		// taken at batch boundaries, so coverage is all-or-nothing per
		// record — but "covered" must mean the batch's MAXIMUM ID, not its
		// final element's: a conflict batch (valid prefix applied live, then
		// a rewinding ID, 409) can end on a low ID while its applied prefix
		// lies beyond the snapshot.
		covered := true
		for _, a := range batch {
			if a.ID > last {
				covered = false
				break
			}
		}
		if covered {
			return nil
		}
		// Stream-order rejections replay the live outcome (prefix applied,
		// batch aborted, client saw 409) — not a recovery failure. Anything
		// else is.
		err := applyRecord(tr, batch)
		if errors.Is(err, sim.ErrNonMonotonicID) || errors.Is(err, sim.ErrBadParent) {
			return nil
		}
		return err
	})
	if err != nil {
		tr.Close()
		return nil, nil, info, err
	}

	w, err := openWAL(fs, filepath.Join(dir, walFileName))
	if err != nil {
		tr.Close()
		return nil, nil, info, err
	}
	if walLimit <= 0 {
		walLimit = DefaultSnapshotWALBytes
	}
	d := &durability{
		dir: dir, fs: fs, lock: lock, wal: w, walLimit: walLimit,
		// Deterministic per-boot jitter stream; the seed value is irrelevant
		// to correctness (jitter only de-synchronizes retry storms).
		rng: rand.New(rand.NewSource(time.Now().UnixNano())),
	}
	if names != nil {
		if err := d.openNames(names); err != nil {
			tr.Close()
			w.close()
			return nil, nil, info, err
		}
	}
	recovered = true
	return tr, d, info, nil
}

// openNames replays names.log into the intern table — restoring the dense
// name→ID mapping the snapshot and WAL reference — and opens the log for
// appending. A torn trailing record (crash mid-append) is truncated away;
// the IDs it would have named cannot appear in the WAL, whose batches are
// only acknowledged after their names are on disk.
func (d *durability) openNames(tb *intern.Table) error {
	path := filepath.Join(d.dir, namesFileName)
	data, err := d.fs.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("server: reading %s: %w", path, err)
	}
	off := 0
	for off < len(data) {
		l, n := binary.Uvarint(data[off:])
		if n <= 0 || off+n+int(l) > len(data) {
			break // torn tail
		}
		tb.Intern(string(data[off+n : off+n+int(l)]))
		off += n + int(l)
	}
	f, err := d.fs.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("server: opening %s: %w", path, err)
	}
	if err := f.Truncate(int64(off)); err != nil { // drop the torn tail, if any
		f.Close()
		return fmt.Errorf("server: truncating %s: %w", path, err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return fmt.Errorf("server: seeking %s: %w", path, err)
	}
	d.namesFile = f
	d.namesPersisted = tb.Len()
	d.namesSize = int64(off)
	return nil
}

// logNames appends names interned since the last call (fsync included);
// called by the ingest loop BEFORE the WAL append of the batch that may
// reference them. On failure the batch must not be logged or applied, and
// the partial record is rolled back (truncated) so a retry cannot append
// after junk; a rollback that itself fails marks the names log broken —
// poisoned(), degraded-readonly — until namesRearm truncates it away.
func (d *durability) logNames(tb *intern.Table) error {
	if d.namesBroken != nil {
		return fmt.Errorf("%w: names log unusable after failed rollback: %v", ErrDurability, d.namesBroken)
	}
	fresh := tb.AppendedSince(d.namesPersisted)
	if len(fresh) == 0 {
		return nil
	}
	w := wire.NewWriter(d.namesFile)
	for _, name := range fresh {
		w.Bytes([]byte(name))
	}
	err := w.Err()
	if err == nil {
		err = d.namesFile.Sync()
	}
	if err != nil {
		return d.rollbackNames(fmt.Errorf("%w: names log: %v", ErrDurability, err))
	}
	pos, err := d.namesFile.Seek(0, io.SeekCurrent)
	if err != nil {
		return d.rollbackNames(fmt.Errorf("%w: names log: %v", ErrDurability, err))
	}
	d.namesPersisted += len(fresh)
	d.namesSize = pos
	return nil
}

// rollbackNames restores names.log to its last-good size after a failed
// append and returns cause. If the truncate (or its sync) fails, junk may
// linger at the tail and the log is marked broken until namesRearm.
func (d *durability) rollbackNames(cause error) error {
	if err := d.namesFile.Truncate(d.namesSize); err != nil {
		d.namesBroken = fmt.Errorf("%v; rollback truncate: %v", cause, err)
		return cause
	}
	if err := d.namesFile.Sync(); err != nil {
		d.namesBroken = fmt.Errorf("%v; rollback sync: %v", cause, err)
		return cause
	}
	if _, err := d.namesFile.Seek(d.namesSize, io.SeekStart); err != nil {
		d.namesBroken = fmt.Errorf("%v; rollback seek: %v", cause, err)
		return cause
	}
	return cause
}

// namesRearm recovers a broken names log: reopen the file and truncate it
// back to the last-good size (dropping rollback junk). The in-memory table
// keeps every name — only the not-yet-persisted suffix re-appends on the
// next logNames.
func (d *durability) namesRearm() error {
	_ = d.namesFile.Close()
	path := filepath.Join(d.dir, namesFileName)
	f, err := d.fs.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("server: names rearm: %w", err)
	}
	if err := f.Truncate(d.namesSize); err != nil {
		f.Close()
		return fmt.Errorf("server: names rearm: %w", err)
	}
	if _, err := f.Seek(d.namesSize, io.SeekStart); err != nil {
		f.Close()
		return fmt.Errorf("server: names rearm: %w", err)
	}
	d.namesFile = f
	d.namesBroken = nil
	return nil
}

// logBatch appends one batch to the WAL; called by the ingest loop before
// applying the batch. On failure the batch must not be applied.
func (d *durability) logBatch(batch []sim.Action) error {
	if err := d.wal.append(batch); err != nil {
		return fmt.Errorf("%w: %v", ErrDurability, err)
	}
	return nil
}

// poisoned reports whether the durable path is unusable (WAL or names log
// holding junk a failed rollback left behind): ingest must stop — the
// degraded-readonly state — until rearm succeeds.
func (d *durability) poisoned() bool {
	return d.wal.broken != nil || d.namesBroken != nil
}

// maybeSnapshot writes a snapshot and truncates the WAL once the log has
// outgrown its threshold, reporting whether a fresh snapshot was published
// (the caller may then collect cold segments the new manifest no longer
// references). force skips the threshold (the graceful-shutdown final
// snapshot). Runs on the ingest loop; tr is safe to use. Failures are
// remembered, not fatal: the WAL keeps every batch, so durability degrades
// to longer replays, never to loss — and retries are paced by capped
// exponential backoff with jitter instead of hammering a sick disk on
// every subsequent batch.
func (d *durability) maybeSnapshot(tr *sim.Tracker, force bool) bool {
	if d.wal.size == 0 {
		return false // the last snapshot (or empty state) already covers everything
	}
	if !force && d.wal.size < d.walLimit {
		return false
	}
	if !force && time.Now().Before(d.nextAttempt) {
		return false // backing off after a recent failure
	}
	if err := d.writeSnapshot(tr); err != nil {
		d.snapshotFailed(err)
		return false
	}
	if err := d.wal.reset(); err != nil {
		d.snapshotFailed(err)
		// The snapshot itself is published and covering; only the truncate
		// failed. Still report success so segment GC can run — the WAL
		// retry path owns the rest.
		return true
	}
	d.snapshotSucceeded()
	return true
}

// snapshotFailed records a failed snapshot attempt and schedules the next
// one: exponential backoff doubling from base to max, jittered to ±50% so
// a fleet of trackers degraded by the same disk does not retry in lockstep.
func (d *durability) snapshotFailed(err error) {
	d.snapErr.Store(err.Error())
	d.snapRetries.Add(1)
	if d.backoff == 0 {
		d.backoff = snapshotBackoffBase
	} else if d.backoff < snapshotBackoffMax {
		d.backoff *= 2
		if d.backoff > snapshotBackoffMax {
			d.backoff = snapshotBackoffMax
		}
	}
	wait := d.backoff/2 + time.Duration(d.rng.Int63n(int64(d.backoff/2)+1))
	d.nextAttempt = time.Now().Add(wait)
}

// snapshotSucceeded clears the degraded-durability signal and backoff.
func (d *durability) snapshotSucceeded() {
	d.snapErr.Store("")
	d.backoff = 0
	d.nextAttempt = time.Time{}
}

// rearm recovers a poisoned durable path, on the ingest loop: persist a
// fresh snapshot covering every acknowledged batch, then recreate the WAL
// empty (dropping rollback junk) and repair the names log. Returns true
// when the tracker is fully durable again. Attempts respect the snapshot
// backoff schedule so a still-sick disk is probed, not hammered.
func (d *durability) rearm(tr *sim.Tracker) bool {
	if time.Now().Before(d.nextAttempt) {
		return false
	}
	if err := d.writeSnapshot(tr); err != nil {
		d.snapshotFailed(err)
		return false
	}
	if d.wal.broken != nil {
		if err := d.wal.rearm(); err != nil {
			d.snapshotFailed(err)
			return false
		}
	} else if err := d.wal.reset(); err != nil {
		// Not poisoned, but the snapshot now covers the log: truncate it.
		d.snapshotFailed(err)
		return false
	}
	if d.namesBroken != nil {
		if err := d.namesRearm(); err != nil {
			d.snapshotFailed(err)
			return false
		}
	}
	d.snapshotSucceeded()
	d.rearms.Add(1)
	return true
}

// snapshotErr returns the most recent snapshot failure message, or "" when
// the durable path is healthy. Safe to call from any goroutine.
func (d *durability) snapshotErr() string {
	s, _ := d.snapErr.Load().(string)
	return s
}

// writeSnapshot persists tr via the temp-file/fsync/rename dance (see
// dataio.AtomicWriteFile), so snapshot.sim2 always names a complete
// snapshot.
func (d *durability) writeSnapshot(tr *sim.Tracker) error {
	path := filepath.Join(d.dir, snapshotFileName)
	if err := dataio.AtomicWriteFile(d.fs, path, tr.SaveTo); err != nil {
		return fmt.Errorf("server: snapshot: %w", err)
	}
	return nil
}

// close releases the WAL and names-log handles and the data-dir lock.
func (d *durability) close() {
	if d.wal != nil {
		d.wal.close()
	}
	if d.namesFile != nil {
		d.namesFile.Close()
	}
	if d.lock != nil {
		d.lock.Close()
	}
}

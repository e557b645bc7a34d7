package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
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
//	snapshot.sim2       latest complete snapshot (sim.Tracker.SaveTo), name table included
//	snapshot.sim2.tmp   in-flight snapshot write; never loaded
//	wal.log             batches applied, names interned, since that snapshot (see wal.go)
//
// Write path (all under the tracker's gate, by its one writer): every batch
// is appended to the WAL and fsynced BEFORE it is applied and the refreshed
// snapshot published — an acknowledged action is on disk, so a kill -9
// mid-ingest loses nothing acknowledged. Once the WAL exceeds its size
// threshold the writer takes a fresh snapshot to snapshot.sim2.tmp, fsyncs,
// atomically renames it over snapshot.sim2 and truncates the WAL. A crash
// between rename and truncate only leaves WAL entries the snapshot already
// covers; recovery skips them by ID.
//
// Failure handling is self-healing rather than fail-stop:
//
//   - A failed snapshot write degrades durability (WAL keeps growing) but
//     retries with capped exponential backoff + jitter instead of
//     re-attempting on every batch; /v1/healthz reports the condition and
//     the retry counter until a write succeeds.
//   - A failed WAL append rejects the batch (503, retryable: the in-memory
//     state never runs ahead of the log) after rolling the partial record
//     back out of the file. Only a failed rollback poisons the log; the tracker
//     then enters degraded-readonly mode (reads keep serving, ingest sheds
//     with 503 + Retry-After). Each batch that arrives runs a checkpoint
//     first, when the backoff allows — fresh covering snapshot, poisoned log
//     recreated — so the first batch after the disk heals re-arms the log
//     and is applied.
//
// Recovery (tracker construction): load snapshot.sim2 if present, then replay
// wal.log — rebuilding a name-mode tracker's name table on the way (see
// foldNames) and skipping batches whose newest ID is not beyond the
// snapshot — through the same ProcessAll call live ingest makes, so a
// batch that was partially rejected live (stream-order conflict) replays to
// the identical partially-applied state. One WAL record is one ProcessAll
// call, and a call holds nothing over to the next, so sim-level batching
// (Spec.Batch > 1) cuts the stream in the same places live and on replay:
// the recovered tracker is the uninterrupted one at any batch size —
// provided it restarts with the same Batch.
const (
	snapshotFileName = "snapshot.sim2"
	snapshotTempName = "snapshot.sim2.tmp"
	walFileName      = "wal.log"
	lockFileName     = ".lock"
	namesSection     = "NAME" // snapshot section: the whole name table, as encodeNames writes it
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
// itself — by whichever goroutine holds the tracker's gate after
// construction.
type durability struct {
	dir      string
	fs       fault.FS
	lock     fault.File // exclusive data-dir flock, held for the tracker's lifetime
	wal      *wal
	walLimit int64
	// names is a name-mode tracker's intern table (nil in numeric mode); its
	// first namesDurable names are on disk, in the snapshot or a WAL trailer.
	names        *intern.Table
	namesDurable int

	// snapErr publishes the most recent snapshot failure (reported via
	// /v1/healthz as a degraded-durability signal: the WAL keeps growing
	// and every reboot replays more, so an operator must hear about it;
	// appends failing is surfaced per-request instead). Written only by
	// the gate holder, read by the HTTP health handler — hence atomic.
	// Holds a string; empty means healthy.
	snapErr atomic.Value
	// snapRetries counts failed checkpoint attempts; rearms counts recoveries
	// from a poisoned log. Written by the gate holder, read by handlers.
	snapRetries atomic.Int64
	rearms      atomic.Int64

	// backoff / nextAttempt pace snapshot retries (gate-owned): after a
	// failure no new attempt is made before nextAttempt.
	backoff     time.Duration
	nextAttempt time.Time
	rng         *rand.Rand
}

// recoverTracker rebuilds a tracker from dir (snapshot + WAL replay) and
// returns it with the open durable state. With no prior files it starts
// fresh. A snapshot that exists but fails to load is a hard error: silently
// starting empty would masquerade as data loss. So is a data dir written in
// the other name mode: a name-mode tracker refuses a snapshot without a NAME
// section and a replayed record with an ID no name is on disk for, a
// numeric one a NAME section and a names trailer. Each error names the file,
// and for a WAL record also the record's number.
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
	var (
		tr        *sim.Tracker
		info      RecoveryInfo
		recovered bool
	)
	defer func() {
		if !recovered { // every error path releases the flock and the tracker
			lock.Close()
			if tr != nil {
				tr.Close()
			}
		}
	}()
	// A leftover temp snapshot is an interrupted write; the real file (if
	// any) is the authoritative one.
	_ = fs.Remove(filepath.Join(dir, snapshotTempName))

	snapPath := filepath.Join(dir, snapshotFileName)
	if f, oerr := fs.OpenFile(snapPath, os.O_RDONLY, 0); oerr == nil {
		sawNames := false
		tr, err = sim.Load(f, cfg, sim.Section{Tag: namesSection, Read: func(payload []byte) error {
			sawNames = true
			if names == nil {
				return errors.New("a numeric tracker cannot load a snapshot with a name table")
			}
			r := wire.NewReader(bytes.NewReader(payload))
			first, list := decodeNames(r, len(payload))
			if err := r.Err(); err != nil {
				return err
			}
			return foldNames(names, first, list)
		}})
		f.Close()
		if err == nil && names != nil && !sawNames {
			err = errors.New("a name-mode tracker cannot load a snapshot without a name table")
		}
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

	// The boot GC: delete the cold segment files tr holds no reference to —
	// strays from a pre-crash spill that never made a snapshot. It runs
	// before replay, while tr references exactly the segments the snapshot
	// names: once replay has re-spilled, a zero-reference segment may be one
	// the on-disk snapshot still names, and those wait for the next covering
	// snapshot (Tracked.checkpoint), as in steady state.
	if _, err := tr.GC(); err != nil {
		return nil, nil, info, fmt.Errorf("server: collecting stray cold segments: %w", err)
	}

	last := tr.LastID()
	var walSize int64
	info.WALBatches, info.WALActions, walSize, err = replayWAL(fs, filepath.Join(dir, walFileName), func(rec walRecord) error {
		if names == nil && len(rec.names) > 0 {
			return errors.New("a numeric tracker cannot replay a record with a names trailer")
		}
		// Every trailer is folded, covered records' included: the names a
		// snapshot holds are checked against them, the rest are new.
		if err := foldNames(names, rec.first, rec.names); err != nil {
			return err
		}
		// Skip records entirely covered by the snapshot (the crash-window
		// leftovers between snapshot rename and WAL truncate). Snapshots are
		// taken at batch boundaries, so coverage is all-or-nothing per
		// record — but "covered" must mean the batch's MAXIMUM ID, not its
		// final element's: a conflict batch (valid prefix applied live, then
		// a rewinding ID, 409) can end on a low ID while its applied prefix
		// lies beyond the snapshot.
		if !slices.ContainsFunc(rec.batch, func(a sim.Action) bool { return a.ID > last }) {
			return nil
		}
		// Every ID a replayed record references is named by now: by the
		// snapshot, this record's trailer or an earlier one.
		if names != nil {
			n := names.Len()
			if i := slices.IndexFunc(rec.batch, func(a sim.Action) bool { return int(a.User) >= n }); i >= 0 {
				return fmt.Errorf("user ID %d has no name (the table holds %d)", rec.batch[i].User, n)
			}
		}
		// Stream-order rejections replay the live outcome (prefix applied,
		// batch aborted, client saw 409) — not a recovery failure. Anything
		// else is.
		err := tr.ProcessAll(rec.batch)
		if errors.Is(err, sim.ErrNonMonotonicID) || errors.Is(err, sim.ErrBadParent) {
			return nil
		}
		return err
	})
	if err != nil {
		return nil, nil, info, err
	}

	w, err := openWAL(fs, filepath.Join(dir, walFileName), walSize)
	if err != nil {
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
		d.names, d.namesDurable = names, names.Len()
	}
	recovered = true
	return tr, d, info, nil
}

// foldNames adds names, IDs first on, to tb (none if nil): the one rule every
// source of names on disk is read back by. A name below tb.Len() must be the
// one there and a new one must land at its ID; anything else is corruption —
// every source is CRC-checked or cut at its torn tail first.
func foldNames(tb *intern.Table, first int, names []string) error {
	for i := 0; tb != nil && i < len(names); i++ {
		name := names[i]
		if have, ok := tb.Name(uint32(first + i)); ok && have == name {
			continue
		}
		if got := tb.Intern(name); int(got) != first+i {
			return fmt.Errorf("server: name %q is on disk with ID %d, the table has it at %d", name, first+i, got)
		}
	}
	return nil
}

// log makes batch durable before it is applied: one WAL record holding it
// and every name not yet on disk. On failure the batch must not be applied;
// its names ride in the next record.
func (d *durability) log(batch []sim.Action) error {
	rec := walRecord{batch: batch, first: d.namesDurable}
	if d.names != nil {
		rec.names = d.names.AppendedSince(d.namesDurable)
	}
	if err := d.wal.append(rec); err != nil {
		return err
	}
	d.namesDurable += len(rec.names)
	return nil
}

// poisoned reports whether the durable path is unusable (the WAL holding junk
// a failed rollback left behind): ingest must stop — the degraded-readonly
// state — until a checkpoint has recreated the log.
func (d *durability) poisoned() bool { return d.wal.broken != nil }

// checkpoint makes snapshot.sim2 cover everything applied and then empties the
// WAL behind it, recreating it if it was poisoned. It is both the
// steady-state snapshot+truncate — taken once the WAL has outgrown its
// threshold and the backoff allows, or unconditionally when force is set
// (graceful shutdown) — and the one repair of a poisoned path, attempted
// whenever the backoff allows, whatever the WAL's size; a repair that
// recreates the log counts one re-arm. Runs under the tracker's gate; tr is
// safe to use.
//
// It reports whether a fresh snapshot was published: the caller may then
// collect cold segments the new manifest no longer references, even if a log
// operation behind it failed — the snapshot is on disk and covering either
// way, and the next attempt owns the rest. Whether the path is durable again
// is poisoned()'s to say.
//
// Failures are remembered, not fatal: the WAL keeps every batch, so
// durability degrades to longer replays, never to loss — and retries are
// paced by capped exponential backoff with jitter instead of hammering a
// sick disk on every subsequent batch.
func (d *durability) checkpoint(tr *sim.Tracker, force bool) (published bool) {
	if d.wal.size == 0 && !d.poisoned() {
		return false // the last snapshot (or empty state) already covers everything
	}
	if !force && (time.Now().Before(d.nextAttempt) || d.wal.size < d.walLimit && !d.poisoned()) {
		return false
	}
	if err := d.writeSnapshot(tr); err != nil {
		d.snapshotFailed(err)
		return false
	}
	var err error
	rearm := d.poisoned()
	if rearm {
		// Re-arm: a fresh handle (the old fd may be dead), the junk cut away.
		_ = d.wal.close()
		var w *wal
		if w, err = openWAL(d.fs, filepath.Join(d.dir, walFileName), 0); err == nil {
			d.wal = w
		}
	} else {
		err = d.wal.reset()
	}
	if err != nil {
		d.snapshotFailed(err)
		return true
	}
	d.snapshotSucceeded()
	if rearm {
		d.rearms.Add(1)
	}
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

// snapshotErr returns the most recent snapshot failure message, or "" when
// the durable path is healthy. Safe to call from any goroutine.
func (d *durability) snapshotErr() string {
	s, _ := d.snapErr.Load().(string)
	return s
}

// writeSnapshot persists tr, and on a name-mode tracker the whole name table,
// via the temp-file/fsync/rename dance (see dataio.AtomicWriteFile), so
// snapshot.sim2 always names a complete snapshot.
func (d *durability) writeSnapshot(tr *sim.Tracker) error {
	var (
		extra []sim.Section
		names []string
	)
	if d.names != nil {
		names = d.names.AppendedSince(0)
		extra = append(extra, sim.Section{Tag: namesSection, Write: func(w io.Writer) error {
			enc := wire.NewWriter(w)
			encodeNames(enc, 0, names)
			return enc.Err()
		}})
	}
	path := filepath.Join(d.dir, snapshotFileName)
	if err := dataio.AtomicWriteFile(d.fs, path, func(w io.Writer) error { return tr.SaveTo(w, extra...) }); err != nil {
		return fmt.Errorf("server: snapshot: %w", err)
	}
	d.namesDurable = len(names)
	return nil
}

// close releases the WAL handle and the data-dir lock.
func (d *durability) close() {
	if d.wal != nil {
		d.wal.close()
	}
	if d.lock != nil {
		d.lock.Close()
	}
}

package server

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/fault"
)

// ErrDurability wraps disk failures of the durable path (WAL and names-log
// appends). Batches rejected with it were NOT applied: the in-memory state
// never runs ahead of the log. The condition is transient — the log was
// rolled back to its pre-append state — so callers may retry (HTTP: 503 +
// Retry-After).
var ErrDurability = errors.New("server: durability failure")

// appendLog is an append-only file with one fsync per append: the mechanism
// under both wal.log and names.log. It has a single appender (the tracker's
// ingest loop), so a torn write can only sit at the tail — a kill -9
// mid-append — and whoever parses the file stops there. A *failed* append
// (short write, ENOSPC, fsync error) is different: its bytes must not linger
// where a later, acknowledged record would be appended after them and be
// stranded behind what the parser takes for the torn tail. So a failed
// append is rolled back by truncating the file to its last good size, and if
// the rollback itself fails the log is poisoned — every later append is
// refused — until rearm recreates it. All file access goes through the
// fault.FS seam, so every one of those edges is injectable.
type appendLog struct {
	fs     fault.FS
	path   string
	name   string // the file's base name, for error messages
	f      fault.File
	size   int64 // bytes of completed appends: the rollback target
	broken error // a failed append that could not be rolled back
}

// openAppendLog opens (creating if needed) the log at path for appending.
// keep is the length to cut the file to — what the caller parsed, dropping a
// torn tail — or negative to keep it whole. O_APPEND: writes land at the end
// of the file wherever a truncate has just put it.
func openAppendLog(fs fault.FS, path string, keep int64) (*appendLog, error) {
	name := filepath.Base(path)
	f, err := fs.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("server: opening %s: %w", name, err)
	}
	if keep < 0 {
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("server: opening %s: %w", name, err)
		}
		keep = st.Size()
	} else if err := f.Truncate(keep); err != nil {
		f.Close()
		return nil, fmt.Errorf("server: truncating %s: %w", name, err)
	}
	return &appendLog{fs: fs, path: path, name: name, f: f, size: keep}, nil
}

// append writes rec in a single Write and fsyncs it. Only after append
// returns nil is rec durable and may what it records be applied and
// acknowledged. A failed append is rolled back, so the error (an
// ErrDurability) means the log is exactly as it was before the call — or
// poisoned, refusing everything thereafter.
func (l *appendLog) append(rec []byte) error {
	if l.broken != nil {
		return fmt.Errorf("%w: %s unusable after failed rollback: %v", ErrDurability, l.name, l.broken)
	}
	_, err := l.f.Write(rec)
	if err != nil {
		err = fmt.Errorf("%s append: %v", l.name, err)
	} else if err = l.f.Sync(); err != nil {
		// The record may be fully written but is not durable — and is about
		// to be rejected, so it must not resurface when the log is parsed.
		err = fmt.Errorf("%s sync: %v", l.name, err)
	}
	if err == nil {
		l.size += int64(len(rec))
		return nil
	}
	// Roll back to the last good size. The truncation is itself synced so the
	// rejected bytes cannot reappear after a crash.
	if terr := l.f.Truncate(l.size); terr != nil {
		l.broken = fmt.Errorf("%v; rollback truncate: %v", err, terr)
	} else if serr := l.f.Sync(); serr != nil {
		l.broken = fmt.Errorf("%v; rollback sync: %v", err, serr)
	}
	if l.broken != nil {
		err = l.broken
	}
	return fmt.Errorf("%w: %v", ErrDurability, err)
}

// reset empties the log once a snapshot covers everything in it.
func (l *appendLog) reset() error {
	if err := l.f.Truncate(0); err != nil {
		return fmt.Errorf("server: %s truncate: %w", l.name, err)
	}
	l.size = 0
	return nil
}

// rearm recovers a poisoned log by recreating its handle: close the
// (possibly unusable) one, reopen, and cut the file to keep bytes, dropping
// the rollback junk behind them. The caller decides what is safe to keep:
// nothing of a log whose records a fresh snapshot covers, the last good size
// of one that is never emptied.
func (l *appendLog) rearm(keep int64) error {
	_ = l.f.Close() // best effort; the fd may already be dead
	fresh, err := openAppendLog(l.fs, l.path, keep)
	if err != nil {
		return err
	}
	*l = *fresh
	return nil
}

// close releases the file handle.
func (l *appendLog) close() error { return l.f.Close() }

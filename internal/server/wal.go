package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"repro/internal/fault"
	"repro/internal/wire"
	"repro/sim"
)

// The write-ahead log of a durable tracker, its only log: one framed record
// per applied ingest batch, appended and fsynced BEFORE the batch reaches the
// tracker, so an acknowledged batch is always recoverable after a crash:
//
//	'B' · uvarint payload length · payload · CRC-32 (IEEE, LE)
//	payload: uvarint action count · per action varint ID · uvarint user · varint parent
//	         [· names trailer: uvarint first ID · uvarint count · per name uvarint length · bytes]
//
// A name-mode record's trailer holds the names interned since the last ones
// on disk, IDs first, first+1, …: every ID a record references is named once
// it is durable. Without new names — every numeric-mode record — there is no
// trailer. Replay re-submits each record as one ProcessAll batch, so a live
// mid-batch stream-order rejection (prefix applied, 409) replays exactly.
//
// With one appender (the gate holder) and one Write and fsync per record, a
// torn write can only sit at the tail, from a kill -9 mid-append: replay
// stops at the first frame that fails to parse or checksum, and openWAL cuts
// it away before the first new append, or what is acknowledged next would sit
// out of the next replay's reach. A bad frame with a valid record anywhere
// behind it is no torn write but corruption, and replay refuses the log. A
// *failed* append is rolled back by truncating to the last good size; if
// that fails too the log is poisoned and refuses every append until a fresh
// snapshot covers what it holds and it is reopened empty — the serving
// layer's degraded-readonly → ok cycle, run by the next batch (registry.go).
// A crash between that snapshot's rename and the truncate is safe: replay
// skips covered records by ID and stops at the junk.
// All file access goes through the fault.FS seam, so every edge is injectable.

// ErrDurability wraps disk failures of the durable path (WAL appends).
// Batches rejected with it were NOT applied: the in-memory state never runs
// ahead of the log. The condition is transient — the log was rolled back to
// its pre-append state — so callers may retry (HTTP: 503 + Retry-After).
var ErrDurability = errors.New("server: durability failure")

// walRecordTag starts every WAL record.
const walRecordTag = byte('B')

// maxWALRecordBytes bounds one record's payload claim.
const maxWALRecordBytes = 1 << 30

// walRecord is one record's content: a batch, and the names trailer — names
// holds the names with IDs first, first+1, …; none means no trailer.
type walRecord struct {
	batch []sim.Action
	first int
	names []string
}

// wal is the open log. size is also the snapshot-policy input.
type wal struct {
	f      fault.File
	size   int64        // bytes of completed appends: the rollback target
	broken error        // a failed append that could not be rolled back
	buf    bytes.Buffer // payload scratch, reused across appends
	frame  []byte       // framed-record scratch, reused across appends
}

// openWAL opens (creating if needed) the log at path for appending behind its
// first keep bytes — the length replayWAL parsed — and cuts away the torn tail
// past them, so the next acknowledged record is one replay will reach.
// O_APPEND: writes land at the end of the file wherever a truncate has just
// put it.
func openWAL(fs fault.FS, path string, keep int64) (*wal, error) {
	f, err := fs.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("server: opening %s: %w", walFileName, err)
	}
	if err := f.Truncate(keep); err != nil {
		f.Close()
		return nil, fmt.Errorf("server: truncating %s: %w", walFileName, err)
	}
	return &wal{f: f, size: keep}, nil
}

// append frames one record and writes it. Only after append returns nil is
// the record durable and may its batch be applied and acknowledged. A failed
// append is rolled back, so the error (an ErrDurability) means the log is
// exactly as it was before the call — or poisoned, refusing everything
// thereafter.
func (w *wal) append(rec walRecord) error {
	w.buf.Reset()
	encodeWALPayload(&w.buf, rec)
	payload := w.buf.Bytes()

	// Frame around it (header before, CRC after), assembled in one reused
	// buffer so the record hits the file in a single Write.
	w.frame = append(w.frame[:0], walRecordTag)
	w.frame = binary.AppendUvarint(w.frame, uint64(len(payload)))
	w.frame = append(w.frame, payload...)
	w.frame = binary.LittleEndian.AppendUint32(w.frame, crc32.ChecksumIEEE(payload))
	return w.write(w.frame)
}

// write appends b in a single Write and fsyncs it, rolling a failure back.
func (w *wal) write(b []byte) error {
	if w.broken != nil {
		return fmt.Errorf("%w: %s unusable after failed rollback: %v", ErrDurability, walFileName, w.broken)
	}
	_, err := w.f.Write(b)
	if err != nil {
		err = fmt.Errorf("%s append: %v", walFileName, err)
	} else if err = w.f.Sync(); err != nil {
		// The record may be fully written but is not durable — and is about
		// to be rejected, so it must not resurface when the log is parsed.
		err = fmt.Errorf("%s sync: %v", walFileName, err)
	}
	if err == nil {
		w.size += int64(len(b))
		return nil
	}
	// Roll back to the last good size. The truncation is itself synced so the
	// rejected bytes cannot reappear after a crash.
	if terr := w.f.Truncate(w.size); terr != nil {
		w.broken = fmt.Errorf("%v; rollback truncate: %v", err, terr)
	} else if serr := w.f.Sync(); serr != nil {
		w.broken = fmt.Errorf("%v; rollback sync: %v", err, serr)
	}
	if w.broken != nil {
		err = w.broken
	}
	return fmt.Errorf("%w: %v", ErrDurability, err)
}

// reset empties the log once a snapshot covers everything in it.
func (w *wal) reset() error {
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("server: %s truncate: %w", walFileName, err)
	}
	w.size = 0
	return nil
}

// close releases the file handle.
func (w *wal) close() error { return w.f.Close() }

// replayWAL streams the log's records to apply in append order and returns,
// as size, the length of the records it parsed. It tolerates a torn tail (see
// the package comment above): parsing stops cleanly at the first frame that
// is cut short or fails its checksum, size bytes in — unless a valid record
// follows it, which no torn write leaves: that is corruption, refused with
// the record's number and nothing truncated. A missing file is an empty log.
// apply errors abort the replay, named by file and record number.
func replayWAL(fs fault.FS, path string, apply func(rec walRecord) error) (batches, actions int, size int64, err error) {
	f, err := fs.OpenFile(path, os.O_RDONLY, 0)
	if errors.Is(err, os.ErrNotExist) {
		return 0, 0, 0, nil
	}
	if err != nil {
		return 0, 0, 0, fmt.Errorf("server: opening WAL for replay: %w", err)
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<20)
	for {
		if _, err := br.Peek(1); err == io.EOF {
			return batches, actions, size, nil
		} else if err != nil {
			return batches, actions, size, fmt.Errorf("server: reading WAL: %w", err)
		}
		payload, n, bad := readFrame(br)
		if bad != "" {
			return batches, actions, size, corruptAfter(f, path, batches+1, size, bad)
		}
		// A CRC-valid record that does not decode is real corruption, not a
		// torn write: surface it, as any record apply refuses.
		rec, err := decodeWALPayload(payload)
		if err == nil {
			err = apply(rec)
		}
		if err != nil {
			return batches, actions, size, fmt.Errorf("server: %s record %d: %w", path, batches+1, err)
		}
		batches++
		actions += len(rec.batch)
		size += n
	}
}

// readFrame reads the frame r starts with, returning its payload and its
// length, or why r does not start with a whole, intact frame.
func readFrame(r interface {
	io.Reader
	io.ByteReader
}) (payload []byte, size int64, bad string) {
	if tag, err := r.ReadByte(); err != nil || tag != walRecordTag {
		return nil, 0, "no record tag"
	}
	// The length, in the bytes append writes it in: a padded varint is no
	// frame the log writes, and would throw size off by its padding.
	k, last := 0, byte(0)
	n, err := binary.ReadUvarint(byteReader(func() (b byte, err error) {
		b, err = r.ReadByte()
		k, last = k+1, b
		return b, err
	}))
	if err != nil || n > maxWALRecordBytes || k > 1 && last == 0 {
		return nil, 0, "a malformed length"
	}
	// Payload · CRC, read only as far as the input goes: a torn length claim
	// allocates nothing beyond it.
	frame, err := io.ReadAll(io.LimitReader(r, int64(n)+4))
	if err != nil || uint64(len(frame)) != n+4 {
		return nil, 0, "cut short"
	}
	if crc32.ChecksumIEEE(frame[:n]) != binary.LittleEndian.Uint32(frame[n:]) {
		return nil, 0, "a checksum mismatch"
	}
	return frame[:n], int64(1 + k + len(frame)), ""
}

// byteReader is a function as an io.ByteReader.
type byteReader func() (byte, error)

func (f byteReader) ReadByte() (byte, error) { return f() }

// corruptAfter returns nil when nothing in f past the bad frame at off
// starts a record — the frame is the torn tail — and otherwise the error that
// refuses the log, naming the bad frame as record.
func corruptAfter(f fault.File, path string, record int, off int64, bad string) error {
	rest, err := io.ReadAll(io.NewSectionReader(f, off, math.MaxInt64-off))
	if err != nil {
		return fmt.Errorf("server: reading WAL: %w", err)
	}
	r := bytes.NewReader(nil)
	for i := 1; i < len(rest); i++ {
		r.Reset(rest[i:])
		if payload, _, why := readFrame(r); why == "" {
			if _, err := decodeWALPayload(payload); err == nil {
				return fmt.Errorf("server: %s record %d: %s, and a valid record starts %d bytes after it: %d bytes follow the last good record, which a torn write does not leave",
					path, record, bad, i, len(rest))
			}
		}
	}
	return nil
}

// encodeWALPayload writes rec's payload (the layout in the comment above),
// via the same wire primitives every snapshot layer uses (bytes.Buffer
// writes cannot fail, so the writer's error is statically nil).
func encodeWALPayload(buf *bytes.Buffer, rec walRecord) {
	enc := wire.NewWriter(buf)
	enc.Uvarint(uint64(len(rec.batch)))
	for _, a := range rec.batch {
		enc.Varint(int64(a.ID))
		enc.Uvarint(uint64(a.User))
		enc.Varint(int64(a.Parent))
	}
	if len(rec.names) > 0 {
		encodeNames(enc, rec.first, rec.names)
	}
}

// decodeWALPayload parses one record payload, accepting exactly what
// encodeWALPayload writes: one that does not re-encode to the same bytes —
// trailing bytes, a user ID past 32 bits, a padded varint — is corrupt.
func decodeWALPayload(payload []byte) (walRecord, error) {
	br := bytes.NewReader(payload)
	r := wire.NewReader(br)
	n := r.Len(len(payload)) // every action takes >= 3 bytes
	rec := walRecord{batch: make([]sim.Action, 0, n)}
	for i := 0; i < n && r.Err() == nil; i++ {
		id := sim.ActionID(r.Varint())
		user := sim.UserID(r.Uvarint())
		parent := sim.ActionID(r.Varint())
		rec.batch = append(rec.batch, sim.Action{ID: id, User: user, Parent: parent})
	}
	if br.Len() > 0 && r.Err() == nil {
		rec.first, rec.names = decodeNames(r, br.Len())
	}
	if err := r.Err(); err != nil {
		return walRecord{}, err
	}
	var again bytes.Buffer
	encodeWALPayload(&again, rec)
	if !bytes.Equal(again.Bytes(), payload) {
		return walRecord{}, errors.New("payload is not a record this log writes")
	}
	return rec, nil
}

// encodeNames writes names, the table's entries from ID first on, as a
// names trailer — also the payload of a snapshot's names section.
func encodeNames(enc *wire.Writer, first int, names []string) {
	enc.Uvarint(uint64(first))
	enc.Uvarint(uint64(len(names)))
	for _, name := range names {
		enc.String(name)
	}
}

// decodeNames reads what encodeNames wrote; max bounds the count (every name
// takes at least a byte). Errors stay in r.
func decodeNames(r *wire.Reader, max int) (first int, names []string) {
	first = r.Len(wire.MaxLen)
	n := r.Len(max)
	names = make([]string, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		names = append(names, string(r.Bytes(wire.MaxLen)))
	}
	return first, names
}

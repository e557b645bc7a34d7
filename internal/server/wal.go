package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"repro/internal/fault"
	"repro/internal/wire"
	"repro/sim"
)

// The write-ahead log of a durable tracker: one framed record per applied
// ingest batch, appended and fsynced BEFORE the batch reaches the tracker,
// so an acknowledged batch is always recoverable after a crash. Record
// framing:
//
//	'B' · uvarint payload length · payload · CRC-32 (IEEE, LE)
//	payload: uvarint action count · per action varint ID · uvarint user · varint parent
//
// Batch boundaries are semantic, not incidental: replay re-submits each
// record as one ProcessAll batch, so a mid-batch stream-order rejection
// (the live 409 path, which applies the prefix and drops the rest) replays
// to exactly the same state.
//
// The file underneath is an appendLog (appendlog.go): one Write and one fsync
// per record, a failed append rolled back out of the file, poisoning when the
// rollback fails too. Replay stops at the first frame that fails to parse or
// checksum: everything before it was written by a completed, synced append;
// everything from it on was never acknowledged, and recovery cuts it away
// before the first new append (openWAL), or the records acknowledged from
// then on would sit behind it, out of the next replay's reach. A poisoned log
// is not terminal: once a fresh snapshot has made every acknowledged batch
// durable again the log is recreated empty (junk and all gone) and appends
// resume — the serving layer's degraded-readonly → recovering → ok cycle
// (see registry.go). A crash between that snapshot's rename and the truncate
// is safe: replay skips snapshot-covered records by ID and stops at the junk
// tail, before which every record is covered.

// walRecordTag starts every WAL record.
const walRecordTag = byte('B')

// maxWALRecordBytes bounds one record's payload; a corrupt length claim at
// the tail fails fast instead of attempting a giant allocation.
const maxWALRecordBytes = 1 << 30

// wal frames batches onto an appendLog; size (promoted) is also the
// snapshot-policy input.
type wal struct {
	*appendLog
	buf   bytes.Buffer // payload scratch, reused across appends
	frame bytes.Buffer // framed-record scratch, reused across appends
}

// openWAL opens (creating if needed) the log at path for appending behind its
// first keep bytes — the length replayWAL parsed — and cuts away the torn tail
// past them, so the next acknowledged record is one replay will reach.
func openWAL(fs fault.FS, path string, keep int64) (*wal, error) {
	l, err := openAppendLog(fs, path, keep)
	if err != nil {
		return nil, err
	}
	return &wal{appendLog: l}, nil
}

// append frames one batch and appends it; see appendLog.append for what a
// nil and a non-nil return promise.
func (w *wal) append(batch []sim.Action) error {
	// Payload, via the same wire primitives every snapshot layer uses
	// (bytes.Buffer writes cannot fail, so enc.Err is statically nil).
	w.buf.Reset()
	enc := wire.NewWriter(&w.buf)
	enc.Uvarint(uint64(len(batch)))
	for _, a := range batch {
		enc.Varint(int64(a.ID))
		enc.Uvarint(uint64(a.User))
		enc.Varint(int64(a.Parent))
	}
	payload := w.buf.Bytes()

	// Frame around it (header before, CRC after), assembled in one reused
	// buffer so the record hits the file in a single Write.
	w.frame.Reset()
	w.frame.Grow(len(payload) + 16)
	w.frame.WriteByte(walRecordTag)
	wire.NewWriter(&w.frame).Uvarint(uint64(len(payload)))
	w.frame.Write(payload)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload))
	w.frame.Write(crc[:])
	return w.appendLog.append(w.frame.Bytes())
}

// replayWAL streams the log's batches to apply in append order and returns,
// as size, the length of the records it parsed. It tolerates a torn tail (see
// the package comment above): parsing stops cleanly at the first incomplete
// or checksum-failing frame, size bytes in. A missing file is an empty log.
// apply errors abort the replay.
func replayWAL(fs fault.FS, path string, apply func(batch []sim.Action) error) (batches, actions int, size int64, err error) {
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
		tag, err := br.ReadByte()
		if err == io.EOF {
			return batches, actions, size, nil
		}
		if err != nil {
			return batches, actions, size, fmt.Errorf("server: reading WAL: %w", err)
		}
		if tag != walRecordTag {
			return batches, actions, size, nil // torn tail
		}
		n, err := binary.ReadUvarint(br)
		if err != nil || n > maxWALRecordBytes {
			return batches, actions, size, nil // torn tail
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(br, payload); err != nil {
			return batches, actions, size, nil // torn tail
		}
		var crcBuf [4]byte
		if _, err := io.ReadFull(br, crcBuf[:]); err != nil {
			return batches, actions, size, nil // torn tail
		}
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(crcBuf[:]) {
			return batches, actions, size, nil // torn tail
		}
		batch, err := decodeWALBatch(payload)
		if err != nil {
			// A CRC-valid record that does not decode is real corruption,
			// not a torn write: surface it.
			return batches, actions, size, fmt.Errorf("server: WAL record %d: %w", batches+1, err)
		}
		if err := apply(batch); err != nil {
			return batches, actions, size, err
		}
		batches++
		actions += len(batch)
		var lenBuf [binary.MaxVarintLen64]byte // tag + length + payload + CRC
		size += int64(1 + binary.PutUvarint(lenBuf[:], n) + len(payload) + len(crcBuf))
	}
}

// decodeWALBatch parses one record payload (the encoding in append).
func decodeWALBatch(payload []byte) ([]sim.Action, error) {
	br := bytes.NewReader(payload)
	r := wire.NewReader(br)
	n := r.Len(len(payload)) // every action takes >= 3 bytes
	batch := make([]sim.Action, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		id := sim.ActionID(r.Varint())
		user := sim.UserID(r.Uvarint())
		parent := sim.ActionID(r.Varint())
		batch = append(batch, sim.Action{ID: id, User: user, Parent: parent})
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	if br.Len() != 0 {
		return nil, fmt.Errorf("%d trailing bytes", br.Len())
	}
	return batch, nil
}

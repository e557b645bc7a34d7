package dataio

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"repro/internal/fault"
	"repro/internal/stream"
	"repro/internal/wire"
)

// Cold segments: the on-disk half of the stream's tiered window state
// (stream.ColdStore). A segment is one immutable file in the SIM2 container
// holding the spilled contribution logs of one spill pass:
//
//	"SIM2" magic · uvarint container version
//	SGH0 · uvarint format version · uvarint segment ID · uvarint log count
//	       · uvarint entry count
//	SGD0 · entry count × 12-byte entries (uint32 user LE · int64 time LE)
//	SEND
//
// Entries are fixed width so an extent is pure arithmetic: log i of the
// segment occupies bytes [off, off+12·count) of the SGD0 payload. Files are
// published with the temp/fsync/rename dance (AtomicWriteFile), so a crash
// mid-spill leaves only a *.tmp file, never a torn segment; every file is
// CRC-validated in full once at open (or immediately after write), after
// which extent reads skip per-read checksums. An extent is read by a
// positioned read on a descriptor the store keeps open per segment, through
// the fault.FS seam: every cold read is an injectable fault point, and a
// failed one is an error the tier counts, on every platform.

// Segment section tags and the segment layout version inside SGH0.
const (
	segHeaderTag     = "SGH0"
	segDataTag       = "SGD0"
	segFormatVersion = 1
	segEntryBytes    = 12
)

// segPrefix/segSuffix frame a segment file name: seg-<id>.sim2.
const (
	segPrefix = "seg-"
	segSuffix = ".sim2"
)

// SegmentFileName returns the file name of segment id within a spill
// directory.
func SegmentFileName(id stream.SegmentID) string {
	return fmt.Sprintf("%s%d%s", segPrefix, uint64(id), segSuffix)
}

// parseSegmentName inverts SegmentFileName.
func parseSegmentName(name string) (stream.SegmentID, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	n, err := strconv.ParseUint(name[len(segPrefix):len(name)-len(segSuffix)], 10, 64)
	if err != nil {
		return 0, false
	}
	return stream.SegmentID(n), true
}

// segInfo is the identity of one validated segment file.
type segInfo struct {
	id         stream.SegmentID
	logCount   int
	entryCount int
	dataOff    int64 // file offset of the SGD0 payload
	dataLen    int64
	dataCRC    uint32 // CRC-32 (IEEE) of the SGD0 payload, as stored in file
	size       int64  // total file size
}

// parseSegment validates a complete segment image — framing, section CRCs,
// header consistency, end marker — and returns its identity. It is the
// hardening boundary for cold data: everything after a successful parse
// trusts offsets arithmetically.
func parseSegment(data []byte) (segInfo, error) {
	info := segInfo{size: int64(len(data))}
	sr, err := readSnapshot(data)
	if err != nil {
		return info, err
	}
	var sawHeader, sawData bool
	for {
		tag, payload, off, crc, err := sr.section()
		if err == io.EOF {
			break
		}
		if err != nil {
			return info, err
		}
		switch tag {
		case segHeaderTag:
			r := wire.NewReader(bytes.NewReader(payload))
			if fv := r.Uvarint(); r.Err() == nil && fv != segFormatVersion {
				return info, fmt.Errorf("%w: unsupported segment format version %d", ErrSnapshotCorrupt, fv)
			}
			info.id = stream.SegmentID(r.Uvarint())
			info.logCount = int(r.Uvarint())
			info.entryCount = int(r.Uvarint())
			if err := r.Err(); err != nil {
				return info, fmt.Errorf("%w: segment header: %v", ErrSnapshotCorrupt, err)
			}
			sawHeader = true
		case segDataTag:
			info.dataOff = int64(off)
			info.dataLen = int64(len(payload))
			info.dataCRC = crc
			sawData = true
		default:
			// Unknown section from a newer writer: validated and skipped.
		}
	}
	if !sawHeader || !sawData {
		return info, fmt.Errorf("%w: segment missing required sections (header=%v, data=%v)", ErrSnapshotCorrupt, sawHeader, sawData)
	}
	if info.entryCount < 0 || info.logCount < 0 || int64(info.entryCount)*segEntryBytes != info.dataLen {
		return info, fmt.Errorf("%w: segment header claims %d entries for %d data bytes", ErrSnapshotCorrupt, info.entryCount, info.dataLen)
	}
	return info, nil
}

// segment is one validated segment known to the store.
type segment struct {
	info segInfo
	path string
	refs int        // live extents referencing this segment
	f    fault.File // read handle: nil until the first ReadLog and after a failed one
}

// close releases the segment's read handle, if it holds one.
func (s *segment) close() error {
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	return err
}

// SegmentStore implements stream.ColdStore over a directory of segment
// files. Like the Stream it backs, it is single-writer: one goroutine owns
// all calls.
type SegmentStore struct {
	fs     fault.FS
	dir    string
	nextID stream.SegmentID
	segs   map[stream.SegmentID]*segment
	raw    []byte // extent bytes of the ReadLog in progress, reused
	// invalid holds files that failed validation at open, by path, with the
	// reason: they are never served (a snapshot referencing one fails its
	// Retain loudly, naming the file) and are deleted by the next GC.
	invalid map[string]error
}

// OpenSegmentStore scans dir (created if missing) for existing segment
// files, validates each in full, and returns a store ready to serve and
// write segments. Leftover *.tmp files from a crash mid-spill are removed;
// files that fail validation are quarantined for GC rather than trusted or
// deleted — a snapshot that references one fails its restore instead of
// silently losing state. All scanned segments start with zero references;
// the caller re-adopts the ones its snapshot mentions via Retain.
func OpenSegmentStore(fs fault.FS, dir string) (*SegmentStore, error) {
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("dataio: opening segment store: %w", err)
	}
	st := &SegmentStore{
		fs:      fs,
		dir:     dir,
		nextID:  1,
		segs:    map[stream.SegmentID]*segment{},
		invalid: map[string]error{},
	}
	entries, err := fs.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("dataio: scanning segment store: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") && strings.HasPrefix(name, segPrefix) {
			fs.Remove(filepath.Join(dir, name)) // torn spill; best effort
			continue
		}
		id, ok := parseSegmentName(name)
		if !ok {
			continue
		}
		if id >= st.nextID {
			st.nextID = id + 1
		}
		path := filepath.Join(dir, name)
		seg, err := st.loadSegment(id, path)
		if err != nil {
			st.invalid[path] = err
			continue
		}
		st.segs[id] = seg
	}
	return st, nil
}

// loadSegment validates the file at path, in full, as segment id.
func (st *SegmentStore) loadSegment(id stream.SegmentID, path string) (*segment, error) {
	data, err := st.fs.ReadFile(path)
	if err != nil {
		return nil, err
	}
	info, err := parseSegment(data)
	if err != nil {
		return nil, err
	}
	if info.id != id {
		return nil, fmt.Errorf("%w: file %s carries segment ID %d", ErrSnapshotCorrupt, filepath.Base(path), uint64(info.id))
	}
	return &segment{info: info, path: path}, nil
}

// WriteLogs implements stream.ColdStore: one new immutable segment holding
// every given log, published atomically and re-validated before any extent
// is handed out. The returned extents carry one store reference each.
func (st *SegmentStore) WriteLogs(logs [][]stream.Contrib) ([]stream.Extent, error) {
	id := st.nextID
	path := filepath.Join(st.dir, SegmentFileName(id))

	entries := 0
	for _, l := range logs {
		entries += len(l)
	}
	var head bytes.Buffer
	hw := wire.NewWriter(&head)
	hw.Uvarint(segFormatVersion)
	hw.Uvarint(uint64(id))
	hw.Uvarint(uint64(len(logs)))
	hw.Uvarint(uint64(entries))
	if err := hw.Err(); err != nil {
		return nil, err
	}
	data := make([]byte, 0, entries*segEntryBytes)
	var scratch [segEntryBytes]byte
	for _, l := range logs {
		for _, c := range l {
			binary.LittleEndian.PutUint32(scratch[0:4], uint32(c.V))
			binary.LittleEndian.PutUint64(scratch[4:12], uint64(c.T))
			data = append(data, scratch[:]...)
		}
	}

	err := AtomicWriteFile(st.fs, path, func(w io.Writer) error {
		sw, err := NewSnapshotWriter(w)
		if err != nil {
			return err
		}
		if err := sw.Section(segHeaderTag, head.Bytes()); err != nil {
			return err
		}
		if err := sw.Section(segDataTag, data); err != nil {
			return err
		}
		return sw.Close()
	})
	if err != nil {
		return nil, err
	}

	// Read the published file back through the same validation as boot:
	// the extents handed out below are backed by bytes proven durable and
	// well-formed.
	seg, err := st.loadSegment(id, path)
	if err != nil {
		st.fs.Remove(path)
		return nil, fmt.Errorf("dataio: verifying written segment %d: %w", uint64(id), err)
	}
	seg.refs = len(logs)
	st.segs[id] = seg
	st.nextID = id + 1

	exts := make([]stream.Extent, len(logs))
	off := int64(0)
	for i, l := range logs {
		exts[i] = stream.Extent{
			Seg:   id,
			Off:   off,
			Count: len(l),
			MaxT:  l[0].T,
		}
		off += int64(len(l)) * segEntryBytes
	}
	return exts, nil
}

// ReadLog implements stream.ColdStore.
func (st *SegmentStore) ReadLog(ext stream.Extent, buf []stream.Contrib) ([]stream.Contrib, error) {
	seg, ok := st.segs[ext.Seg]
	if !ok {
		return nil, fmt.Errorf("dataio: read of unknown segment %d", uint64(ext.Seg))
	}
	n := int64(ext.Count) * segEntryBytes
	if ext.Off < 0 || ext.Count < 0 || ext.Off+n > seg.info.dataLen {
		return nil, fmt.Errorf("dataio: extent [%d,+%d) outside segment %d data (%d bytes)",
			ext.Off, n, uint64(ext.Seg), seg.info.dataLen)
	}
	if err := st.readAt(seg, seg.info.dataOff+ext.Off, int(n)); err != nil {
		return nil, fmt.Errorf("dataio: reading segment %d: %w", uint64(ext.Seg), err)
	}
	out := buf
	for e := st.raw; len(e) > 0; e = e[segEntryBytes:] {
		out = append(out, stream.Contrib{
			V: stream.UserID(binary.LittleEndian.Uint32(e[0:4])),
			T: stream.ActionID(binary.LittleEndian.Uint64(e[4:12])),
		})
	}
	return out, nil
}

// readAt fills st.raw with the n bytes at offset off of seg's file, through a
// handle opened at the segment's first read and kept until GC or Close. A
// failed open leaves no handle and a failed read drops it, so the next read
// starts from a fresh descriptor rather than retrying a dead one; running
// out of descriptors (EMFILE) is a failed read like any other.
func (st *SegmentStore) readAt(seg *segment, off int64, n int) error {
	if seg.f == nil {
		f, err := st.fs.OpenFile(seg.path, os.O_RDONLY, 0)
		if err != nil {
			return err
		}
		seg.f = f
	}
	st.raw = slices.Grow(st.raw[:0], n)[:n]
	_, err := seg.f.ReadAt(st.raw, off)
	if err != nil {
		seg.close()
	}
	return err
}

// Retain implements stream.ColdStore.
func (st *SegmentStore) Retain(seg stream.SegmentID) error {
	s, ok := st.segs[seg]
	if !ok {
		path := filepath.Join(st.dir, SegmentFileName(seg))
		if err, bad := st.invalid[path]; bad {
			return fmt.Errorf("dataio: segment %d: %s: %w", uint64(seg), path, err)
		}
		return fmt.Errorf("dataio: retain of unknown segment %d", uint64(seg))
	}
	s.refs++
	return nil
}

// Release implements stream.ColdStore. A segment whose count reaches zero
// is retired, not deleted: the on-disk snapshot may still reference it
// until the next snapshot supersedes it, at which point GC may delete it.
func (st *SegmentStore) Release(seg stream.SegmentID) {
	if s, ok := st.segs[seg]; ok && s.refs > 0 {
		s.refs--
	}
}

// Stat implements stream.ColdStore.
func (st *SegmentStore) Stat(seg stream.SegmentID) (stream.SegmentStat, error) {
	s, ok := st.segs[seg]
	if !ok {
		return stream.SegmentStat{}, fmt.Errorf("dataio: stat of unknown segment %d", uint64(seg))
	}
	return stream.SegmentStat{CRC: s.info.dataCRC, Size: s.info.size}, nil
}

// LiveSegments returns the number of segments with at least one live
// extent — the cold_segments serving metric.
func (st *SegmentStore) LiveSegments() int {
	n := 0
	for _, s := range st.segs {
		if s.refs > 0 {
			n++
		}
	}
	return n
}

// GC deletes every retired (zero-reference) segment file plus anything
// quarantined at open, returning how many files were removed. It must only
// be called when the caller knows no durable snapshot references retired
// segments — the serving layer calls it immediately after publishing a new
// snapshot, when the on-disk manifest and the in-memory extents coincide.
// Library users managing their own SaveTo destinations should call it only
// if those snapshots are gone or superseded.
func (st *SegmentStore) GC() (removed int, err error) {
	var doomed []string
	for id, s := range st.segs {
		if s.refs == 0 {
			s.close()
			delete(st.segs, id)
			doomed = append(doomed, s.path)
		}
	}
	for path := range st.invalid {
		doomed = append(doomed, path)
	}
	clear(st.invalid)
	for _, path := range doomed {
		if rerr := st.fs.Remove(path); rerr == nil {
			removed++
		} else if err == nil {
			err = rerr
		}
	}
	return removed, err
}

// Close releases every read handle. The store must not be used afterwards.
func (st *SegmentStore) Close() error {
	var err error
	for _, s := range st.segs {
		if cerr := s.close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

package dataio

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"unsafe"
)

// SIM2 is the repository's snapshot container format: the durable
// serialization of a sim.Tracker (and everything below it) written by
// Tracker.SaveTo and read by sim.Load.
//
// Layout:
//
//	"SIM2" magic · uvarint container version
//	section*     · 4-byte tag · uvarint payload length · payload · CRC-32 (IEEE, LE)
//	end section  · tag "SEND" with empty payload
//
// Every section is length-prefixed, so a reader that does not know a tag
// skips it — the forward-compatibility rule that lets newer writers add
// sections without breaking older readers. Every payload carries its own
// CRC so corruption is detected per section, and the explicit "SEND" end
// marker distinguishes a complete snapshot from one truncated by a crash
// mid-write (a reader hitting EOF before "SEND" reports ErrSnapshotTruncated
// instead of silently loading a prefix).
//
// The writer streams: a section's payload goes through a CRC-and-count tee
// into one 64 KiB file buffer while its producer writes it, so a snapshot
// of any size costs the writer that buffer (WriteSection). The length
// prefix comes first, so a producer states it up front — sim.Tracker.SaveTo
// runs each section's producer once into wire.Size's counting writer,
// then again into the section. The reader does not stream: it reads the
// whole image (NewSnapshotReader), which only recovery does.

// snapshotMagic starts every SIM2 snapshot.
var snapshotMagic = [4]byte{'S', 'I', 'M', '2'}

// SnapshotVersion is the container version written by NewSnapshotWriter.
// Readers reject higher versions: the container layout itself changed.
// (Payload evolution does not bump this — unknown sections are skipped and
// each section payload carries its own layer version.)
const SnapshotVersion = 1

// snapshotEndTag terminates a snapshot.
const snapshotEndTag = "SEND"

// maxSectionBytes bounds a single section payload (1 GiB): a corrupt or
// hostile length prefix fails fast instead of attempting the allocation.
const maxSectionBytes = 1 << 30

// Snapshot container errors.
var (
	// ErrNotSnapshot is returned when the input does not start with the
	// SIM2 magic.
	ErrNotSnapshot = errors.New("dataio: not a SIM2 snapshot")
	// ErrSnapshotTruncated is returned when the input ends before the
	// snapshot's end marker — a partially written snapshot file.
	ErrSnapshotTruncated = errors.New("dataio: truncated SIM2 snapshot")
	// ErrSnapshotCorrupt is wrapped by section-level integrity failures
	// (CRC mismatch, malformed framing).
	ErrSnapshotCorrupt = errors.New("dataio: corrupt SIM2 snapshot")
)

var snapshotCRC = crc32.IEEETable

// SnapshotWriter emits a SIM2 snapshot section by section. Sections appear
// in write order; Close writes the end marker. Methods after an error are
// no-ops returning the first error.
type SnapshotWriter struct {
	w      *bufio.Writer
	err    error
	closed bool
}

// NewSnapshotWriter writes the SIM2 header and returns a writer for the
// sections that follow.
func NewSnapshotWriter(w io.Writer) (*SnapshotWriter, error) {
	sw := &SnapshotWriter{w: bufio.NewWriterSize(w, 1<<16)}
	sw.w.Write(snapshotMagic[:])
	var buf [binary.MaxVarintLen64]byte
	if _, err := sw.w.Write(binary.AppendUvarint(buf[:0], SnapshotVersion)); err != nil {
		return nil, err
	}
	return sw, nil
}

// Section writes one tagged, CRC-protected section from a payload held in
// memory: WriteSection with a callback that writes payload.
func (sw *SnapshotWriter) Section(tag string, payload []byte) error {
	return sw.WriteSection(tag, len(payload), func(w io.Writer) error {
		_, err := w.Write(payload)
		return err
	})
}

// WriteSection writes one tagged, CRC-protected section whose payload,
// exactly n bytes, write emits into w. The bytes go through a tee that
// counts them and folds them into the section's CRC on their way into the
// writer's file buffer, so no payload is ever held whole: a caller that
// cannot state n up front sizes the payload first with wire.Size, running
// the same write into a writer that only counts.
//
// tag must be exactly 4 bytes and must not be the reserved end tag. A write
// past n bytes fails at once and writes nothing; fewer than n bytes, or an
// error from write, fails when write returns. Every failure is sticky:
// later calls and Close return it, and the output ends without an end
// marker, so no reader loads it.
func (sw *SnapshotWriter) WriteSection(tag string, n int, write func(w io.Writer) error) error {
	if sw.err != nil {
		return sw.err
	}
	switch {
	case sw.closed:
		sw.err = errors.New("dataio: Section after Close")
	case len(tag) != 4:
		sw.err = fmt.Errorf("dataio: section tag %q must be 4 bytes", tag)
	case tag == snapshotEndTag:
		sw.err = fmt.Errorf("dataio: section tag %q is reserved", tag)
	case n < 0 || n > maxSectionBytes:
		sw.err = fmt.Errorf("dataio: section %q of %d bytes", tag, n)
	}
	if sw.err != nil {
		return sw.err
	}
	return sw.writeSection(tag, n, write)
}

// writeSection checks the last write only: a bufio.Writer keeps its first
// error and returns it from every later call, Flush included.
func (sw *SnapshotWriter) writeSection(tag string, n int, write func(w io.Writer) error) error {
	var buf [binary.MaxVarintLen64]byte
	sw.w.WriteString(tag)
	sw.w.Write(binary.AppendUvarint(buf[:0], uint64(n)))
	tee := sectionTee{w: sw.w, left: n}
	err := write(&tee)
	if tee.err != nil { // an overrun, whatever write made of it
		err = tee.err
	}
	if err != nil {
		sw.err = fmt.Errorf("dataio: section %q: %w", tag, err)
		return sw.err
	}
	if tee.left != 0 {
		sw.err = fmt.Errorf("dataio: section %q: wrote %d of %d announced bytes", tag, n-tee.left, n)
		return sw.err
	}
	_, sw.err = sw.w.Write(binary.LittleEndian.AppendUint32(buf[:0], tee.crc))
	return sw.err
}

// sectionTee is the writer a WriteSection callback writes into: it passes
// the payload to the file buffer while counting it down and folding it into
// the CRC.
type sectionTee struct {
	w    *bufio.Writer
	left int // bytes still to come
	crc  uint32
	err  error // set by the first write past the announced length
}

func (t *sectionTee) Write(p []byte) (int, error) {
	if err := t.take(len(p)); err != nil {
		return 0, err
	}
	t.crc = crc32.Update(t.crc, snapshotCRC, p)
	return t.w.Write(p)
}

// WriteString is Write without the []byte copy of s (wire.Writer.String).
func (t *sectionTee) WriteString(s string) (int, error) {
	if err := t.take(len(s)); err != nil {
		return 0, err
	}
	t.crc = crc32.Update(t.crc, snapshotCRC, unsafe.Slice(unsafe.StringData(s), len(s)))
	return t.w.WriteString(s)
}

// take counts n bytes against the announced length. The first write past
// it fails, and so does every write after that.
func (t *sectionTee) take(n int) error {
	if t.err == nil && n > t.left {
		t.err = errors.New("payload longer than announced")
	}
	if t.err != nil {
		return t.err
	}
	t.left -= n
	return nil
}

// Close writes the end marker and flushes. The snapshot is complete — and
// loadable — only after Close returns nil.
func (sw *SnapshotWriter) Close() error {
	if sw.err != nil {
		return sw.err
	}
	if sw.closed {
		return nil
	}
	sw.closed = true
	sw.writeSection(snapshotEndTag, 0, func(io.Writer) error { return nil })
	sw.err = sw.w.Flush()
	return sw.err
}

// SnapshotReader iterates the sections of a SIM2 snapshot. It is the only
// reader of the container framing: the segment validator walks its files
// through the same section method.
type SnapshotReader struct {
	data []byte // the whole image
	off  int    // of the next section
	err  error
}

// NewSnapshotReader reads r to its end, validates the SIM2 header and
// returns a section iterator. It fails with ErrNotSnapshot on a wrong magic
// and a descriptive error on a container version newer than this reader
// understands.
func NewSnapshotReader(r io.Reader) (*SnapshotReader, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("dataio: reading snapshot: %w", err)
	}
	return readSnapshot(data)
}

// readSnapshot is NewSnapshotReader over an image already in memory.
func readSnapshot(data []byte) (*SnapshotReader, error) {
	if len(data) < len(snapshotMagic) || [4]byte(data[:4]) != snapshotMagic {
		return nil, ErrNotSnapshot
	}
	v, n := binary.Uvarint(data[4:])
	if n <= 0 {
		return nil, ErrSnapshotTruncated
	}
	if v > SnapshotVersion {
		return nil, fmt.Errorf("dataio: SIM2 container version %d is newer than supported version %d", v, SnapshotVersion)
	}
	return &SnapshotReader{data: data, off: 4 + n}, nil
}

// Next returns the next section's tag and payload (CRC-verified). It
// returns io.EOF after the end marker; an input that ends without one fails
// with ErrSnapshotTruncated. Unknown tags are the caller's to skip — simply
// call Next again.
func (sr *SnapshotReader) Next() (tag string, payload []byte, err error) {
	if sr.err == nil {
		tag, payload, _, _, sr.err = sr.section()
	}
	return tag, payload, sr.err
}

// section is Next plus where the payload lies in the image and the CRC
// stored behind it, without Next's memory of a failure. The payload is a
// sub-slice of the image, so a length prefix claiming more than the image
// holds costs no allocation.
func (sr *SnapshotReader) section() (tag string, payload []byte, payloadOff int, crc uint32, err error) {
	rest := sr.data[sr.off:]
	if len(rest) < 4 {
		return "", nil, 0, 0, ErrSnapshotTruncated
	}
	tag = string(rest[:4])
	plen, n := binary.Uvarint(rest[4:])
	if n <= 0 {
		return "", nil, 0, 0, ErrSnapshotTruncated
	}
	if plen > maxSectionBytes {
		return "", nil, 0, 0, fmt.Errorf("%w: section %q claims %d bytes", ErrSnapshotCorrupt, tag, plen)
	}
	rest = rest[4+n:]
	if uint64(len(rest)) < plen+4 {
		return "", nil, 0, 0, ErrSnapshotTruncated
	}
	payloadOff = sr.off + 4 + n
	payload = rest[:plen:plen]
	crc = binary.LittleEndian.Uint32(rest[plen:])
	if got := crc32.Checksum(payload, snapshotCRC); got != crc {
		return "", nil, 0, 0, fmt.Errorf("%w: section %q CRC mismatch (got %08x, want %08x)", ErrSnapshotCorrupt, tag, got, crc)
	}
	sr.off = payloadOff + int(plen) + 4
	if tag == snapshotEndTag {
		return "", nil, 0, 0, io.EOF
	}
	return tag, payload, payloadOff, crc, nil
}

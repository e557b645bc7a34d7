// Package wire provides the low-level binary primitives shared by every
// layer's Save/Restore implementation (stream, oracle, core, sim): varint
// integers, fixed-width IEEE floats and length-prefixed byte strings over a
// sticky-error Writer/Reader pair.
//
// It deliberately lives below internal/dataio (which imports
// internal/stream and therefore cannot be imported by it): the SIM2
// snapshot *container* — magic, versioned header, CRC-framed sections —
// lives in dataio, while the payload encodings each layer writes inside a
// section are built from these primitives.
//
// Sticky errors keep serialization code linear: a layer emits its whole
// payload without per-call error checks and asks Err once at the end. After
// the first failure every subsequent write is dropped and every read
// returns the zero value.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
)

// ErrCorrupt is wrapped by Reader errors caused by malformed input (as
// opposed to I/O failures of the underlying reader).
var ErrCorrupt = errors.New("wire: corrupt payload")

// MaxLen is the permissive bound for Len/Bytes callers that have no
// tighter structural limit: far beyond any real section's element count or
// byte size, small enough to reject hostile 2^60-style length claims
// before allocation — and, unlike an untyped 1<<40, within int range on
// 32-bit platforms.
const MaxLen = math.MaxInt32

// Writer encodes primitives to an io.Writer with a sticky error. The zero
// value is not usable; construct with NewWriter. Every primitive is encoded
// in the Writer's own buffer, so writing one allocates nothing.
type Writer struct {
	w   io.Writer
	buf [binary.MaxVarintLen64]byte
	err error
}

// NewWriter returns a Writer over w. Callers that need buffering wrap w
// themselves: a snapshot section's writer already buffers, and a payload
// that must be length-prefixed is sized by Size or accumulated in a
// bytes.Buffer.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Err returns the first error encountered, if any.
func (w *Writer) Err() error { return w.err }

func (w *Writer) write(b []byte) {
	if w.err != nil {
		return
	}
	if _, err := w.w.Write(b); err != nil {
		w.err = err
	}
}

// Uvarint writes an unsigned varint.
func (w *Writer) Uvarint(v uint64) { w.write(AppendUvarint(w.buf[:0], v)) }

// AppendUvarint appends v to b as Uvarint writes it.
func AppendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// UvarintLen returns the number of bytes Uvarint writes for v.
func UvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// VarintLen returns the number of bytes Varint writes for v: the zig-zag
// code's.
func VarintLen(v int64) int { return UvarintLen(uint64(v<<1) ^ uint64(v>>63)) }

// Varint writes a signed (zig-zag) varint.
func (w *Writer) Varint(v int64) {
	n := binary.PutVarint(w.buf[:], v)
	w.write(w.buf[:n])
}

// Int writes an int as a signed varint.
func (w *Writer) Int(v int) { w.Varint(int64(v)) }

// F64 writes a float64 as its IEEE 754 bits, little-endian. Bits — not a
// decimal rendering — so accumulated values (coverage sums, oracle
// thresholds) restore bit-identically and continued runs match
// uninterrupted ones exactly.
func (w *Writer) F64(v float64) { w.write(AppendF64(w.buf[:0], v)) }

// AppendF64 appends v to b as F64 writes it.
func AppendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// Bool writes a bool as one byte.
func (w *Writer) Bool(v bool) {
	w.buf[0] = 0
	if v {
		w.buf[0] = 1
	}
	w.write(w.buf[:1])
}

// Bytes writes a length-prefixed byte string.
func (w *Writer) Bytes(b []byte) {
	w.Uvarint(uint64(len(b)))
	w.write(b)
}

// Raw writes b verbatim: values its caller already encoded with
// AppendUvarint and AppendF64, batched into one write.
func (w *Writer) Raw(b []byte) { w.write(b) }

// String writes s as Bytes writes []byte(s), without that copy when the
// underlying writer is an io.StringWriter. Reader.Bytes reads it back.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	if w.err != nil {
		return
	}
	if _, err := io.WriteString(w.w, s); err != nil {
		w.err = err
	}
}

// Size returns the number of bytes write emits, running it into a writer
// that only counts: the first pass of a payload that must be
// length-prefixed and is then written in a second. write must emit the
// same bytes on both runs.
func Size(write func(w io.Writer) error) (int, error) {
	var c counter
	err := write(&c)
	return int(c), err
}

// counter is an io.Writer that keeps nothing but the byte count.
type counter int

func (c *counter) Write(p []byte) (int, error) {
	*c += counter(len(p))
	return len(p), nil
}

func (c *counter) WriteString(s string) (int, error) {
	*c += counter(len(s))
	return len(s), nil
}

// Reader decodes primitives from an io.Reader with a sticky error. The zero
// value is not usable; construct with NewReader.
type Reader struct {
	r   io.Reader
	br  io.ByteReader
	err error
}

// byteReader adapts a plain io.Reader to io.ByteReader without the big
// default bufio buffer (snapshot payloads are usually bytes.Readers, which
// already implement io.ByteReader, so this path is rare).
type byteReader struct{ r io.Reader }

func (b byteReader) ReadByte() (byte, error) {
	var p [1]byte
	_, err := io.ReadFull(b.r, p[:])
	return p[0], err
}

// NewReader returns a Reader over r.
func NewReader(r io.Reader) *Reader {
	br, ok := r.(io.ByteReader)
	if !ok {
		br = byteReader{r}
	}
	return &Reader{r: r, br: br}
}

// Err returns the first error encountered, if any. io.EOF mid-value is
// reported as io.ErrUnexpectedEOF wrapped in ErrCorrupt: snapshot payloads
// are length-delimited, so running out of bytes always means truncation.
func (r *Reader) Err() error { return r.err }

func (r *Reader) fail(err error) {
	if r.err == nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		r.err = fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(r.br)
	if err != nil {
		r.fail(err)
		return 0
	}
	return v
}

// Varint reads a signed varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, err := binary.ReadVarint(r.br)
	if err != nil {
		r.fail(err)
		return 0
	}
	return v
}

// Int reads an int written by Writer.Int.
func (r *Reader) Int() int { return int(r.Varint()) }

// Len reads a non-negative count and validates it against max, the largest
// value that can possibly be legitimate (typically bounded by the payload
// size). A hostile or corrupt length then fails here instead of causing a
// huge allocation.
func (r *Reader) Len(max int) int {
	v := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if max >= 0 && v > uint64(max) {
		r.fail(fmt.Errorf("length %d exceeds limit %d", v, max))
		return 0
	}
	return int(v)
}

// F64 reads a float64 written by Writer.F64.
func (r *Reader) F64() float64 {
	if r.err != nil {
		return 0
	}
	var b [8]byte
	if _, err := io.ReadFull(r.r, b[:]); err != nil {
		r.fail(err)
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
}

// Bool reads a bool written by Writer.Bool.
func (r *Reader) Bool() bool {
	if r.err != nil {
		return false
	}
	b, err := r.br.ReadByte()
	if err != nil {
		r.fail(err)
		return false
	}
	switch b {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail(fmt.Errorf("bad bool byte %#x", b))
		return false
	}
}

// Bytes reads a length-prefixed byte string written by Writer.Bytes,
// validating the length against max (see Len).
func (r *Reader) Bytes(max int) []byte {
	n := r.Len(max)
	if r.err != nil || n == 0 {
		return nil
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r.r, b); err != nil {
		r.fail(err)
		return nil
	}
	return b
}

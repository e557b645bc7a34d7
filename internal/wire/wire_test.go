package wire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Uvarint(0)
	w.Uvarint(1 << 60)
	w.Varint(-5)
	w.Varint(1 << 40)
	w.Int(-42)
	w.F64(3.141592653589793)
	w.F64(math.Inf(-1))
	w.Bool(true)
	w.Bool(false)
	w.Bytes([]byte("hello"))
	w.Bytes(nil)
	w.String("héllo")
	w.String("")
	if err := w.Err(); err != nil {
		t.Fatalf("writer error: %v", err)
	}

	r := NewReader(bytes.NewReader(buf.Bytes()))
	if got := r.Uvarint(); got != 0 {
		t.Errorf("Uvarint = %d, want 0", got)
	}
	if got := r.Uvarint(); got != 1<<60 {
		t.Errorf("Uvarint = %d, want %d", got, uint64(1)<<60)
	}
	if got := r.Varint(); got != -5 {
		t.Errorf("Varint = %d, want -5", got)
	}
	if got := r.Varint(); got != 1<<40 {
		t.Errorf("Varint = %d, want %d", got, int64(1)<<40)
	}
	if got := r.Int(); got != -42 {
		t.Errorf("Int = %d, want -42", got)
	}
	if got := r.F64(); got != 3.141592653589793 {
		t.Errorf("F64 = %v", got)
	}
	if got := r.F64(); !math.IsInf(got, -1) {
		t.Errorf("F64 = %v, want -Inf", got)
	}
	if got := r.Bool(); got != true {
		t.Errorf("Bool = %v, want true", got)
	}
	if got := r.Bool(); got != false {
		t.Errorf("Bool = %v, want false", got)
	}
	if got := r.Bytes(16); string(got) != "hello" {
		t.Errorf("Bytes = %q, want hello", got)
	}
	if got := r.Bytes(16); len(got) != 0 {
		t.Errorf("Bytes = %q, want empty", got)
	}
	if got := r.Bytes(16); string(got) != "héllo" {
		t.Errorf("Bytes of String = %q, want héllo", got)
	}
	if got := r.Bytes(16); len(got) != 0 {
		t.Errorf("Bytes of String = %q, want empty", got)
	}
	if err := r.Err(); err != nil {
		t.Fatalf("reader error: %v", err)
	}
}

// TestStringMatchesBytes pins String to Bytes' encoding, through a writer
// with WriteString and through one without.
func TestStringMatchesBytes(t *testing.T) {
	for _, s := range []string{"", "a", "ünïcode", string(make([]byte, 300))} {
		var want, got bytes.Buffer
		NewWriter(&want).Bytes([]byte(s))
		NewWriter(&got).String(s)
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("String(%q) = %x, Bytes = %x", s, got.Bytes(), want.Bytes())
		}
		got.Reset()
		NewWriter(struct{ io.Writer }{&got}).String(s)
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("String(%q) without WriteString = %x, Bytes = %x", s, got.Bytes(), want.Bytes())
		}
	}
}

// TestWriterAllocs pins every primitive at zero allocations into a
// pre-grown buffer: a snapshot writes hundreds of thousands of them.
func TestWriterAllocs(t *testing.T) {
	var buf bytes.Buffer
	buf.Grow(1 << 16)
	w := NewWriter(&buf)
	b, s := []byte("bytes"), "string"
	for name, write := range map[string]func(){
		"Uvarint": func() { w.Uvarint(1 << 40) },
		"Varint":  func() { w.Varint(-1 << 40) },
		"Int":     func() { w.Int(-42) },
		"F64":     func() { w.F64(math.Pi) },
		"Bool":    func() { w.Bool(true) },
		"Bytes":   func() { w.Bytes(b) },
		"U64":     func() { w.U64(1 << 63) },
		"String":  func() { w.String(s) },
	} {
		if got := testing.AllocsPerRun(100, func() { buf.Reset(); write() }); got != 0 {
			t.Errorf("%s: %v allocs per call, want 0", name, got)
		}
	}
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestTruncationIsCorrupt(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.F64(1.5)
	b := buf.Bytes()[:4] // cut mid-float

	r := NewReader(bytes.NewReader(b))
	_ = r.F64()
	if err := r.Err(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated read error = %v, want ErrCorrupt", err)
	}
}

func TestLenLimit(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Uvarint(1 << 40)
	r := NewReader(bytes.NewReader(buf.Bytes()))
	r.Len(1024)
	if err := r.Err(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("oversized length error = %v, want ErrCorrupt", err)
	}
}

func TestBadBool(t *testing.T) {
	r := NewReader(bytes.NewReader([]byte{7}))
	r.Bool()
	if err := r.Err(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad bool error = %v, want ErrCorrupt", err)
	}
}

func TestStickyError(t *testing.T) {
	r := NewReader(bytes.NewReader(nil))
	r.Uvarint() // fails: EOF
	first := r.Err()
	if first == nil {
		t.Fatal("expected an error from empty input")
	}
	r.Varint()
	r.F64()
	if r.Err() != first {
		t.Fatal("error not sticky")
	}
}

// errWriter fails after n bytes.
type errWriter struct{ n int }

func (e *errWriter) Write(p []byte) (int, error) {
	if len(p) > e.n {
		return 0, io.ErrClosedPipe
	}
	e.n -= len(p)
	return len(p), nil
}

func TestWriterSticky(t *testing.T) {
	w := NewWriter(&errWriter{n: 2})
	w.F64(1) // 8 bytes: fails
	if w.Err() == nil {
		t.Fatal("expected write error")
	}
	first := w.Err()
	w.Uvarint(1)
	if w.Err() != first {
		t.Fatal("writer error not sticky")
	}
}

// nonByteReader hides the ByteReader of the wrapped reader.
type nonByteReader struct{ r io.Reader }

func (n nonByteReader) Read(p []byte) (int, error) { return n.r.Read(p) }

func TestPlainReaderAdapter(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Uvarint(300)
	w.Bool(true)
	r := NewReader(nonByteReader{bytes.NewReader(buf.Bytes())})
	if got := r.Uvarint(); got != 300 {
		t.Fatalf("Uvarint through adapter = %d, want 300", got)
	}
	if !r.Bool() || r.Err() != nil {
		t.Fatalf("Bool through adapter failed: %v", r.Err())
	}
}

// TestVarintLen: UvarintLen and VarintLen give the length Uvarint and Varint
// write, at every length boundary and its neighbours, both signs.
func TestVarintLen(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for shift := 0; shift < 64; shift++ {
		for _, d := range []int64{-1, 0, 1} {
			u := uint64(1)<<shift + uint64(d)
			buf.Reset()
			w.Uvarint(u)
			if got := UvarintLen(u); got != buf.Len() {
				t.Fatalf("UvarintLen(%d) = %d, Uvarint writes %d bytes", u, got, buf.Len())
			}
			for _, v := range []int64{int64(u), -int64(u), int64(u >> 1), -int64(u >> 1)} {
				buf.Reset()
				w.Varint(v)
				if got := VarintLen(v); got != buf.Len() {
					t.Fatalf("VarintLen(%d) = %d, Varint writes %d bytes", v, got, buf.Len())
				}
			}
		}
	}
	for _, v := range []int64{math.MinInt64, math.MaxInt64} {
		buf.Reset()
		w.Varint(v)
		if got := VarintLen(v); got != buf.Len() {
			t.Fatalf("VarintLen(%d) = %d, Varint writes %d bytes", v, got, buf.Len())
		}
	}
	buf.Reset()
	w.Uvarint(math.MaxUint64)
	if got := UvarintLen(math.MaxUint64); got != buf.Len() {
		t.Fatalf("UvarintLen(MaxUint64) = %d, Uvarint writes %d bytes", got, buf.Len())
	}
}

package dataio

import (
	"bytes"
	"io"
	"sync"

	"repro/internal/stream"
)

// readNDJSON is the read loop of ReadNDJSON and ReadNDJSONNamed. It hands
// each whole line to parse, the mode's canonical-line converter, and skips
// blank ones. At the first line parse refuses — or one that does not fit
// the buffer — it passes that line and everything after it to decodeJSON
// into R, numbering on from the records already read. A canonical line
// followed by a newline is one complete JSON value, so the decoder starting
// there sees what it would have seen reading from the top.
func readNDJSON[R interface{ action() (A, error) }, A any](r io.Reader, visit func(A) bool, parse func([]byte) (A, bool)) error {
	lr := lineReaders.Get().(*lineReader)
	defer lr.release()
	lr.r = r
	n := 1
	for {
		line, ok := lr.line()
		if !ok {
			if lr.err == io.EOF {
				return nil
			}
			break
		}
		if blank(line) {
			continue
		}
		a, ok := parse(line)
		if !ok {
			lr.start = lr.last
			break
		}
		if !visit(a) {
			return nil
		}
		n++
	}
	tail := lr.r
	if lr.err != nil {
		tail = errReader{lr.err}
	}
	return decodeJSON[R](io.MultiReader(bytes.NewReader(lr.buf[lr.start:lr.end]), tail), visit, n)
}

// lineReader is readNDJSON's input buffer. Its 4 KiB hold dozens of
// canonical lines; pooling it keeps a 4-action request from paying for it.
type lineReader struct {
	r          io.Reader
	err        error // from the last Read, acted on once the buffered lines run out
	start, end int   // the unread bytes are buf[start:end]
	last       int   // where the line line() returned last starts
	buf        [4 << 10]byte
}

var lineReaders = sync.Pool{New: func() any { return new(lineReader) }}

func (lr *lineReader) release() {
	lr.r, lr.err, lr.start, lr.end = nil, nil, 0, 0
	lineReaders.Put(lr)
}

// line returns the next line without its '\n' — at EOF, the unterminated
// last one — reading only when no whole line is buffered, so a line on a
// live pipe is returned as soon as it arrives. It returns false when no
// line can be had: at EOF, after any other read error (lr.err), or when
// one line fills the buffer (lr.err nil).
func (lr *lineReader) line() ([]byte, bool) {
	for {
		if i := bytes.IndexByte(lr.buf[lr.start:lr.end], '\n'); i >= 0 {
			lr.last = lr.start
			lr.start += i + 1
			return lr.buf[lr.last : lr.last+i], true
		}
		if lr.err != nil {
			if lr.err != io.EOF || lr.start == lr.end {
				return nil, false
			}
			lr.last, lr.start = lr.start, lr.end
			return lr.buf[lr.last:lr.end], true
		}
		if lr.start > 0 {
			lr.end = copy(lr.buf[:], lr.buf[lr.start:lr.end])
			lr.start = 0
		}
		if lr.end == len(lr.buf) {
			return nil, false
		}
		var n int
		n, lr.err = lr.r.Read(lr.buf[lr.end:])
		lr.end += n
	}
}

// errReader replays a read error the line reader took from its input, for
// the decoder to meet where the input broke off.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// blank reports whether b is JSON whitespace only, short of a newline.
func blank(b []byte) bool {
	for _, c := range b {
		if c != ' ' && c != '\t' && c != '\r' {
			return false
		}
	}
	return true
}

// parseHead reads the start of a canonical line, {"id":I,"user":, and
// returns I and what follows.
func parseHead(b []byte) (int64, []byte, bool) {
	b, ok := cut(b, `{"id":`)
	if !ok {
		return 0, nil, false
	}
	id, b, ok := parseInt(b)
	if !ok {
		return 0, nil, false
	}
	b, ok = cut(b, `,"user":`)
	return id, b, ok
}

// parseTail reads the end of a canonical line after the user: an optional
// ,"parent":P with P ≥ -1, the closing brace and blanks. No parent reads as
// stream.NoParent.
func parseTail(b []byte) (stream.ActionID, bool) {
	parent := stream.NoParent
	if rest, ok := cut(b, `,"parent":`); ok {
		p, rest, ok := parseInt(rest)
		if !ok || p < -1 {
			return 0, false
		}
		parent, b = stream.ActionID(p), rest
	}
	b, ok := cut(b, "}")
	return parent, ok && blank(b)
}

// cut removes prefix from b.
func cut(b []byte, prefix string) ([]byte, bool) {
	if len(b) < len(prefix) || string(b[:len(prefix)]) != prefix {
		return nil, false
	}
	return b[len(prefix):], true
}

// parseInt reads a JSON integer that fits an int64, with no leading zeros
// and no "-0", from the front of b.
func parseInt(b []byte) (int64, []byte, bool) {
	if len(b) == 0 || b[0] != '-' {
		v, rest, ok := parseUint(b, 1<<63-1)
		return int64(v), rest, ok
	}
	v, rest, ok := parseUint(b[1:], 1<<63)
	return int64(-v), rest, ok && v != 0
}

// parseUint reads a JSON integer in [0, limit], with no leading zeros,
// from the front of b.
func parseUint(b []byte, limit uint64) (uint64, []byte, bool) {
	var v uint64
	i := 0
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		if i == 19 { // 19 digits cannot overflow a uint64; 20 may
			return 0, nil, false
		}
		v = v*10 + uint64(b[i]-'0')
	}
	if i == 0 || i > 1 && b[0] == '0' || v > limit {
		return 0, nil, false
	}
	return v, b[i:], true
}

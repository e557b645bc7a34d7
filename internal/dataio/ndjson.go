package dataio

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"repro/internal/stream"
)

// actionJSON is the NDJSON wire form of one action: one JSON object per
// line. "parent" may be omitted (or set to -1) for root actions, so a
// minimal line is {"id":1,"user":7}. It is what the json.Decoder fallback
// of ReadNDJSON decodes into.
type actionJSON struct {
	ID     int64  `json:"id"`
	User   uint32 `json:"user"`
	Parent *int64 `json:"parent,omitempty"`
}

// AppendNDJSON appends actions to dst in the NDJSON format — one
// {"id":…,"user":…,"parent":…} object per line, "parent" omitted for roots,
// byte for byte what encoding/json writes for actionJSON — and returns the
// extended buffer. It allocates only to grow dst.
func AppendNDJSON(dst []byte, actions []stream.Action) []byte {
	for _, a := range actions {
		dst = append(dst, `{"id":`...)
		dst = strconv.AppendInt(dst, int64(a.ID), 10)
		dst = append(dst, `,"user":`...)
		dst = strconv.AppendUint(dst, uint64(a.User), 10)
		dst = appendTail(dst, a.Parent)
	}
	return dst
}

// appendTail ends a line: ,"parent":P unless parent is stream.NoParent,
// then the closing brace and the newline.
func appendTail(dst []byte, parent stream.ActionID) []byte {
	if parent != stream.NoParent {
		dst = append(dst, `,"parent":`...)
		dst = strconv.AppendInt(dst, int64(parent), 10)
	}
	return append(dst, "}\n"...)
}

// WriteNDJSON writes actions in the NDJSON format of AppendNDJSON. This is
// the ingest body format of the simserve HTTP API (internal/server).
func WriteNDJSON(w io.Writer, actions []stream.Action) error {
	return writeChunked(w, actions, AppendNDJSON)
}

// ndjsonFlushBytes is how much encoded output writeChunked gathers before
// handing it to the destination: enough that a file sees few writes, while
// the staging buffer, sized to the batch, costs a four-action request body a
// few hundred bytes rather than a fixed megabyte.
const ndjsonFlushBytes = 64 << 10

// ndjsonLineBytes is the staging room reserved per action: a numeric line
// with six-digit IDs and a parent is 42 bytes; longer ones grow the buffer.
const ndjsonLineBytes = 64

// writeChunked appends actions one at a time and writes the output in
// chunks of about ndjsonFlushBytes.
func writeChunked[A any](w io.Writer, actions []A, appendTo func([]byte, []A) []byte) error {
	buf := make([]byte, 0, min(len(actions)*ndjsonLineBytes, ndjsonFlushBytes))
	for i := range actions {
		buf = appendTo(buf, actions[i:i+1])
		if len(buf) >= ndjsonFlushBytes {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	_, err := w.Write(buf)
	return err
}

// action converts a decoded record, rejecting invalid parents. A missing
// "parent" field — or an explicit -1 — marks a root action.
func (rec actionJSON) action() (stream.Action, error) {
	a := stream.Action{ID: stream.ActionID(rec.ID), User: stream.UserID(rec.User), Parent: stream.NoParent}
	if rec.Parent != nil {
		if *rec.Parent < -1 {
			return stream.Action{}, fmt.Errorf("dataio: bad parent %d", *rec.Parent)
		}
		a.Parent = stream.ActionID(*rec.Parent)
	}
	return a, nil
}

// ReadNDJSON streams actions from NDJSON input to visit, stopping early if
// visit returns false. This runs once per ingest HTTP request on the
// server's hot path, so it reads whole lines through a small pooled buffer
// and converts a canonical line — exactly what AppendNDJSON writes, see
// parseAction — without reflection. The first line that is neither
// canonical nor blank goes, with the rest of the input, to one json.Decoder
// (NDJSON is a valid JSON value stream), which defines the accepted
// language: the fast path only takes lines on which the decoder would
// produce the same action, so any input yields the same actions and the
// same error as the decoder alone. Blank lines are skipped (inter-value
// whitespace); errors name the 1-based record.
func ReadNDJSON(r io.Reader, visit func(stream.Action) bool) error {
	return readNDJSON[actionJSON](r, visit, parseAction)
}

// parseAction converts one canonical numeric line:
// {"id":I,"user":U} or {"id":I,"user":U,"parent":P}, then optional blanks,
// where every number is a JSON integer without leading zeros or "-0", I
// and P fit an int64, U a uint32, and P ≥ -1.
func parseAction(line []byte) (stream.Action, bool) {
	id, b, ok := parseHead(line)
	if !ok {
		return stream.Action{}, false
	}
	user, b, ok := parseUint(b, 1<<32-1)
	if !ok {
		return stream.Action{}, false
	}
	parent, ok := parseTail(b)
	return stream.Action{ID: stream.ActionID(id), User: stream.UserID(user), Parent: parent}, ok
}

// decodeJSON is the json.Decoder loop every input not read by the fast
// path goes through: R is the wire form of a record, A the action it
// converts to, and n the number of the first record r holds.
func decodeJSON[R interface{ action() (A, error) }, A any](r io.Reader, visit func(A) bool, n int) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	for ; ; n++ {
		var rec R
		err := dec.Decode(&rec)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("record %d: dataio: bad NDJSON action: %w", n, err)
		}
		a, err := rec.action()
		if err != nil {
			return fmt.Errorf("record %d: %w", n, err)
		}
		if !visit(a) {
			return nil
		}
	}
}

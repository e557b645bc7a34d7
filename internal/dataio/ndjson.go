package dataio

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/stream"
)

// actionJSON is the NDJSON wire form of one action: one JSON object per
// line. "parent" may be omitted (or set to -1) for root actions, so a
// minimal line is {"id":1,"user":7}.
type actionJSON struct {
	ID     int64  `json:"id"`
	User   uint32 `json:"user"`
	Parent *int64 `json:"parent,omitempty"`
}

// WriteNDJSON writes actions in the NDJSON format: one {"id":…,"user":…,
// "parent":…} object per line, with "parent" omitted for roots. This is the
// ingest body format of the simserve HTTP API (internal/server).
func WriteNDJSON(w io.Writer, actions []stream.Action) error {
	return writeNDJSON(w, len(actions), func(i int) any {
		a := actions[i]
		rec := actionJSON{ID: int64(a.ID), User: uint32(a.User)}
		if !a.Root() {
			p := int64(a.Parent)
			rec.Parent = &p
		}
		return rec
	})
}

// ndjsonFlushBytes is how much encoded output writeNDJSON gathers before
// handing it to the destination: enough that a file sees few writes, while
// the staging buffer, grown on demand, costs a four-action request body
// (api.Client.Ingest) a few hundred bytes rather than a fixed megabyte.
const ndjsonFlushBytes = 64 << 10

// writeNDJSON encodes record(0) … record(n-1), one JSON object per line.
func writeNDJSON(w io.Writer, n int, record func(i int) any) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf) // Encode appends the newline NDJSON needs
	for i := 0; i < n; i++ {
		if err := enc.Encode(record(i)); err != nil {
			return err
		}
		if buf.Len() >= ndjsonFlushBytes {
			if _, err := w.Write(buf.Bytes()); err != nil {
				return err
			}
			buf.Reset()
		}
	}
	_, err := w.Write(buf.Bytes())
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
// visit returns false. One json.Decoder consumes the whole input (NDJSON is
// a valid JSON value stream), so parsing does not allocate a reader and
// decoder per line — this runs once per ingest HTTP request on the server's
// hot path. Blank lines are skipped (inter-value whitespace); errors name
// the 1-based record.
func ReadNDJSON(r io.Reader, visit func(stream.Action) bool) error {
	return readNDJSON[actionJSON](r, visit)
}

// readNDJSON is the decode loop of ReadNDJSON and ReadNDJSONNamed: R is the
// wire form of a record, A the action it converts to.
func readNDJSON[R interface{ action() (A, error) }, A any](r io.Reader, visit func(A) bool) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	for n := 1; ; n++ {
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

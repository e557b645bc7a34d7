package dataio

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"unicode/utf8"

	"repro/internal/stream"
)

// Name-mode NDJSON: the same line format as actionJSON but with "user" as
// an external string name — {"id":1,"user":"alice","parent":-1}. Strict
// decoding makes the two modes mutually exclusive on the wire: a numeric
// "user" fails name-mode parsing and a string "user" fails numeric-mode
// parsing, so a client cannot silently mix ID spaces.

// NamedAction is one decoded name-mode action. Parent is stream.NoParent
// for roots.
type NamedAction struct {
	ID     stream.ActionID
	User   string
	Parent stream.ActionID
}

type namedActionJSON struct {
	ID     int64  `json:"id"`
	User   string `json:"user"`
	Parent *int64 `json:"parent,omitempty"`
}

func (rec namedActionJSON) action() (NamedAction, error) {
	if rec.User == "" {
		return NamedAction{}, fmt.Errorf("dataio: action %d has an empty user name", rec.ID)
	}
	a := NamedAction{ID: stream.ActionID(rec.ID), User: rec.User, Parent: stream.NoParent}
	if rec.Parent != nil {
		if *rec.Parent < -1 {
			return NamedAction{}, fmt.Errorf("dataio: bad parent %d", *rec.Parent)
		}
		a.Parent = stream.ActionID(*rec.Parent)
	}
	return a, nil
}

// AppendNDJSONNamed appends name-mode actions to dst as NDJSON, "parent"
// omitted for roots, byte for byte what encoding/json writes for
// namedActionJSON, and returns the extended buffer.
func AppendNDJSONNamed(dst []byte, actions []NamedAction) []byte {
	for _, a := range actions {
		dst = append(dst, `{"id":`...)
		dst = strconv.AppendInt(dst, int64(a.ID), 10)
		dst = append(dst, `,"user":`...)
		dst = appendName(dst, a.User)
		dst = appendTail(dst, a.Parent)
	}
	return dst
}

// appendName appends name as a JSON string. A name encoding/json writes
// unchanged is copied between quotes; any other goes through json.Marshal,
// whose escaping (HTML characters, U+2028/2029, control bytes, invalid
// UTF-8 as U+FFFD) is the one the bytes on the wire must keep.
func appendName(dst []byte, name string) []byte {
	if !jsonVerbatim(name) {
		b, _ := json.Marshal(name) // a string always marshals
		return append(dst, b...)
	}
	dst = append(dst, '"')
	dst = append(dst, name...)
	return append(dst, '"')
}

// jsonVerbatim reports whether encoding/json, escaping HTML as its Encoder
// does by default, writes s between quotes with no byte changed.
func jsonVerbatim(s string) bool {
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c < 0x20 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
				return false
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 || r == '\u2028' || r == '\u2029' {
			return false
		}
		i += size
	}
	return true
}

// WriteNDJSONNamed writes name-mode actions in the format of
// AppendNDJSONNamed — the ingest body format for trackers with Spec.Names
// set.
func WriteNDJSONNamed(w io.Writer, actions []NamedAction) error {
	return writeChunked(w, actions, AppendNDJSONNamed)
}

// ReadNDJSONNamed streams name-mode actions from NDJSON input to visit,
// stopping early if visit returns false. Mirrors ReadNDJSON, with
// parseNamed as its fast path.
func ReadNDJSONNamed(r io.Reader, visit func(NamedAction) bool) error {
	return readNDJSON[namedActionJSON](r, visit, parseNamed)
}

// parseNamed converts one canonical name-mode line: the grammar of
// parseAction with "user" a non-empty string holding no '\\', '"' or
// control byte and valid UTF-8 — a string json.Decoder returns verbatim.
func parseNamed(line []byte) (NamedAction, bool) {
	id, b, ok := parseHead(line)
	if !ok || len(b) == 0 || b[0] != '"' {
		return NamedAction{}, false
	}
	b = b[1:]
	end := bytes.IndexByte(b, '"')
	if end <= 0 {
		return NamedAction{}, false
	}
	name := b[:end]
	for _, c := range name {
		if c < 0x20 || c == '\\' {
			return NamedAction{}, false
		}
	}
	if !utf8.Valid(name) {
		return NamedAction{}, false
	}
	parent, ok := parseTail(b[end+1:])
	if !ok {
		return NamedAction{}, false
	}
	return NamedAction{ID: stream.ActionID(id), User: string(name), Parent: parent}, true
}

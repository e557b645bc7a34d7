package dataio

import (
	"fmt"
	"io"

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

// WriteNDJSONNamed writes name-mode actions as NDJSON, "parent" omitted for
// roots — the ingest body format for trackers with Spec.Names set.
func WriteNDJSONNamed(w io.Writer, actions []NamedAction) error {
	return writeNDJSON(w, len(actions), func(i int) any {
		a := actions[i]
		rec := namedActionJSON{ID: int64(a.ID), User: a.User}
		if a.Parent != stream.NoParent {
			p := int64(a.Parent)
			rec.Parent = &p
		}
		return rec
	})
}

// ReadNDJSONNamed streams name-mode actions from NDJSON input to visit,
// stopping early if visit returns false. Mirrors ReadNDJSON.
func ReadNDJSONNamed(r io.Reader, visit func(NamedAction) bool) error {
	return readNDJSON[namedActionJSON](r, visit)
}

// Package intern assigns dense uint32 IDs to external string identifiers.
//
// The SIM hot path (internal/stream, internal/oracle) wants users as small
// dense unsigned integers: map keys hash fast, per-user state packs into
// slices, and influence sets stay compact. Real deployments identify users
// by opaque strings. A Table is the boundary between the two worlds: the
// serving layer interns wire-level names into dense IDs on ingest and
// resolves IDs back to names on the way out, so the wire API speaks names
// while the core speaks uints (cf. the interning layer of janus-datalog's
// datalog engine, which plays the same trick for Datalog constants).
//
// IDs are assigned in first-appearance order starting at 0, which makes a
// Table trivially persistable: the names in ID order reconstruct the exact
// mapping, and a persister writes only the names new since its last write.
package intern

import "sync"

// Table is a bidirectional string ⇄ dense-uint32 mapping. The zero Table is
// not ready; use New. A Table is safe for concurrent use: Intern may race
// with Lookup/Name/Len from any number of goroutines.
type Table struct {
	mu    sync.RWMutex
	ids   map[string]uint32
	names []string
}

// New returns an empty table, optionally pre-sized for sizeHint names.
func New(sizeHint int) *Table {
	if sizeHint < 0 {
		sizeHint = 0
	}
	return &Table{
		ids:   make(map[string]uint32, sizeHint),
		names: make([]string, 0, sizeHint),
	}
}

// Intern returns the ID of name, assigning the next dense ID on first
// appearance.
func (t *Table) Intern(name string) uint32 {
	t.mu.RLock()
	id, ok := t.ids[name]
	t.mu.RUnlock()
	if ok {
		return id
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.ids[name]; ok { // raced with another Intern
		return id
	}
	id = uint32(len(t.names))
	t.ids[name] = id
	t.names = append(t.names, name)
	return id
}

// Lookup returns the ID of name without interning it.
func (t *Table) Lookup(name string) (uint32, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	id, ok := t.ids[name]
	return id, ok
}

// Name resolves an ID back to its name.
func (t *Table) Name(id uint32) (string, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if int(id) >= len(t.names) {
		return "", false
	}
	return t.names[id], true
}

// Len returns the number of interned names; valid IDs are [0, Len).
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.names)
}

// AppendedSince returns a copy of the names with IDs >= from, in ID order —
// the increment a persister must write to cover everything interned so far
// (from 0: the whole table). A from at or beyond Len returns nil.
func (t *Table) AppendedSince(from int) []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if from < 0 {
		from = 0
	}
	if from >= len(t.names) {
		return nil
	}
	return append([]string(nil), t.names[from:]...)
}

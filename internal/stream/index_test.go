package stream

import (
	"bytes"
	"math/rand"
	"testing"
)

// refIndex is the action index as a map of every retained entry — the ring's
// and the pinned ancestors' alike — plus the ring's IDs in order: the
// reference the circular ring and the ID-ordered pinned list are checked
// against.
type refIndex struct {
	entries map[ActionID]entry
	ring    []ActionID
	horizon ActionID
}

// ingest adds a, taking a reference on its parent when the parent is
// retained and marking a cut otherwise.
func (r *refIndex) ingest(a Action) {
	e := entry{id: a.ID, parent: a.Parent, user: a.User, refs: 1}
	if !a.Root() {
		if p, ok := r.entries[a.Parent]; ok {
			p.refs++
			r.entries[a.Parent] = p
		} else {
			e.refs |= cutBit
		}
	}
	r.entries[a.ID] = e
	r.ring = append(r.ring, a.ID)
}

// advance expires the ring's entries below horizon, collecting each one
// nothing retained reaches and the ancestors that leaves unreached.
func (r *refIndex) advance(horizon ActionID) {
	if horizon <= r.horizon {
		return
	}
	r.horizon = horizon
	for len(r.ring) > 0 && r.ring[0] < horizon {
		id := r.ring[0]
		r.ring = r.ring[1:]
		for id != NoParent {
			e := r.entries[id]
			if e.refs--; e.count() > 0 {
				r.entries[id] = e
				break
			}
			delete(r.entries, id)
			id = e.up()
		}
	}
}

// FuzzStreamIndex replays an ingest/Advance sequence on a Stream and on
// refIndex and compares them after every step: Len, the live pinned count,
// and for every retained ID and its neighbours — gaps and collected IDs
// among them — slot (ring IDs only, at the slot holding them) and lookup
// (same user, same reference count, the same parent to follow up the chain,
// absent alike). At the end the stream's Save, whose length PayloadSize
// must give, is restored and compared the same way.
//
// An op is opLen bytes: a kind (below 200 ingest, else Advance), then for an
// ingest the ID step (1 to 4: contiguous and gapped IDs), the user, and the
// parent — 0 a root, odd the previous action (long chains, which pin whole
// ancestries as the horizon passes them), else that many IDs back (an
// expired, collected or never-seen parent is cut); for an Advance the
// distance of the new horizon below the last ID (0 expires everything).
func FuzzStreamIndex(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 400*opLen)
		rng.Read(ops)
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		s, ref := New(), &refIndex{entries: map[ActionID]entry{}}
		last := ActionID(0)
		for op := 0; op+opLen <= min(len(ops), maxIndexOps*opLen); op += opLen {
			b := ops[op : op+opLen]
			if b[0] < 200 {
				a := Action{ID: last + 1 + ActionID(b[1]%4), User: UserID(b[2] % 32), Parent: NoParent}
				switch {
				case b[3] == 0 || last == 0:
				case b[3]%2 == 1:
					a.Parent = last
				default:
					a.Parent = max(last-ActionID(b[3]), 1)
				}
				if _, err := s.Ingest(a); err != nil {
					t.Fatalf("op %d: ingest %v: %v", op/opLen, a, err)
				}
				ref.ingest(a)
				last = a.ID
			} else {
				h := last + 1 - ActionID(b[1])
				s.Advance(h)
				ref.advance(h)
			}
			compareIndex(t, op/opLen, s, ref)
		}
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if n, _ := s.PayloadSize(); n != buf.Len() {
			t.Fatalf("PayloadSize %d, Save wrote %d bytes", n, buf.Len())
		}
		r, err := Restore(&buf, nil, 0)
		if err != nil {
			t.Fatalf("Restore: %v", err)
		}
		compareIndex(t, -1, r, ref)
	})
}

const (
	opLen       = 4
	maxIndexOps = 400
)

// compareIndex fails the test unless s indexes what ref does.
func compareIndex(t *testing.T, op int, s *Stream, ref *refIndex) {
	t.Helper()
	if s.Len() != len(ref.ring) || s.pins() != len(ref.entries)-len(ref.ring) {
		t.Fatalf("op %d: ring %d and %d pinned, reference %d and %d",
			op, s.Len(), s.pins(), len(ref.ring), len(ref.entries)-len(ref.ring))
	}
	probe := func(id ActionID) {
		want, ok := ref.entries[id]
		got, found := s.lookup(id)
		if found != ok || found && (got.id != id || got.user != want.user || got.up() != want.up() || got.count() != want.count()) {
			t.Fatalf("op %d: lookup(%d) = %+v %v, reference %+v %v", op, id, got, found, want, ok)
		}
		// Every ID ingested after the last Advance is above its horizon, so
		// the reference ring holds exactly the retained IDs from the horizon.
		inRing := ok && id >= ref.horizon
		if j := s.slot(id); (j >= 0) != inRing || j >= 0 && s.ring[j].id != id {
			t.Fatalf("op %d: slot(%d) = %d, in the reference ring: %v", op, id, j, inRing)
		}
	}
	for id := range ref.entries {
		probe(id - 1)
		probe(id)
		probe(id + 1)
	}
	probe(ref.horizon - 1)
	probe(ref.horizon)
}

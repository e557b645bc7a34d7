package stream

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/wire"
)

// streamPayloadVersion versions the Save payload independently of the SIM2
// container that carries it. Version 2 appends the cold tier: the per-user
// segment-extent table and a manifest of the referenced segments (ID, CRC,
// size) that Restore verifies against the attached ColdStore. Version 3 drops
// the four counters and the user set versions 1 and 2 carry between the logs
// and the cold tier. Both older versions are still accepted.
const streamPayloadVersion = 3

// Save serializes the stream's complete mutable state — the diffusion index
// (with reference counts), the per-user contribution logs and the retained
// window — so that Restore yields a stream that behaves bit-identically to
// this one on every future Ingest, Advance and influence query. Map-backed
// state is emitted in sorted key order, so saving the same stream twice
// produces identical bytes.
//
// The transient query machinery (generation marks, contributor arenas, the
// userLog header arena) is deliberately not serialized: it is scratch that
// rebuilds on first use and never affects results.
func (s *Stream) Save(w io.Writer) error {
	ww := wire.NewWriter(w)
	ww.Uvarint(streamPayloadVersion)
	ww.Varint(int64(s.horizon))
	ww.Varint(int64(s.last))

	// Retained window, oldest first, each action as ingested.
	ww.Uvarint(uint64(s.rlen))
	for i := range s.rlen {
		e := &s.ring[s.at(i)]
		ww.Varint(int64(e.id))
		ww.Uvarint(uint64(e.user))
		ww.Varint(int64(e.parent))
	}

	// Diffusion index with refcounts, in ID order: the live pinned
	// ancestors, all below the horizon, then the ring. Refs are
	// reconstructible (one liveness reference per in-window action plus one
	// per retained child), but storing them keeps Restore a single pass and
	// makes the payload self-validating. A cut action's parent is saved as
	// NoParent.
	ww.Uvarint(uint64(s.pins() + s.rlen))
	put := func(e *entry) {
		ww.Varint(int64(e.id))
		ww.Uvarint(uint64(e.user))
		ww.Varint(int64(e.up()))
		ww.Varint(int64(e.count()))
	}
	for i := range s.pinned {
		if s.pinned[i].count() > 0 {
			put(&s.pinned[i])
		}
	}
	for i := range s.rlen {
		put(&s.ring[s.at(i)])
	}

	// Contribution logs. Entry order within a log is semantic (descending
	// recency — the prefix property every influence query relies on) and is
	// preserved verbatim.
	users := make([]UserID, 0, len(s.logs))
	for u := range s.logs {
		users = append(users, u)
	}
	sort.Slice(users, func(i, j int) bool { return users[i] < users[j] })
	ww.Uvarint(uint64(len(users)))
	for _, u := range users {
		l := s.logs[u]
		ww.Uvarint(uint64(u))
		ww.Uvarint(uint64(len(l.list)))
		for _, c := range l.list {
			ww.Uvarint(uint64(c.V))
			ww.Varint(int64(c.T))
		}
	}

	return s.saveCold(ww)
}

// saveCold writes the cold tier (v2), the payload's last part. The extent
// table references segments by ID instead of embedding their entries, so
// snapshot size and save time scale with the HOT state only — the segments
// themselves are already durable files. Spilled logs are never faulted in
// by Save.
func (s *Stream) saveCold(ww *wire.Writer) error {
	coldUsers := make([]UserID, 0, len(s.cold))
	for u := range s.cold {
		coldUsers = append(coldUsers, u)
	}
	sort.Slice(coldUsers, func(i, j int) bool { return coldUsers[i] < coldUsers[j] })
	ww.Uvarint(uint64(len(coldUsers)))
	segSet := map[SegmentID]struct{}{}
	for _, u := range coldUsers {
		ext := s.cold[u]
		ww.Uvarint(uint64(u))
		ww.Uvarint(uint64(ext.Seg))
		ww.Varint(ext.Off)
		ww.Uvarint(uint64(ext.Count))
		ww.Varint(int64(ext.MaxT))
		segSet[ext.Seg] = struct{}{}
	}
	// Manifest of the referenced segments, sorted by ID: Restore re-adopts
	// exactly these files and verifies their identity before trusting them.
	segs := make([]SegmentID, 0, len(segSet))
	for seg := range segSet {
		segs = append(segs, seg)
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	ww.Uvarint(uint64(len(segs)))
	for _, seg := range segs {
		st, err := s.store.Stat(seg)
		if err != nil {
			return fmt.Errorf("stream: saving segment manifest: %w", err)
		}
		ww.Uvarint(uint64(seg))
		ww.Uvarint(uint64(st.CRC))
		ww.Varint(st.Size)
	}
	return ww.Err()
}

// PayloadSize returns the number of bytes Save writes, without encoding the
// hot state: its varints' lengths are summed from the values Save would
// write (wire.UvarintLen, wire.VarintLen), and only the cold tier — a few
// fields per spilled user — is encoded, into a writer that counts. A
// caller that must prefix the payload with its length (core.Framework.Save)
// then writes it straight through instead of buffering it. Like Save, it
// fails when a cold segment cannot be stat'ed.
func (s *Stream) PayloadSize() (int, error) {
	n := wire.UvarintLen(streamPayloadVersion) + wire.VarintLen(int64(s.horizon)) + wire.VarintLen(int64(s.last))
	n += wire.UvarintLen(uint64(s.rlen)) + wire.UvarintLen(uint64(s.pins()+s.rlen))
	index := func(e *entry) int {
		return wire.VarintLen(int64(e.id)) + wire.UvarintLen(uint64(e.user)) +
			wire.VarintLen(int64(e.up())) + wire.VarintLen(int64(e.count()))
	}
	for i := range s.rlen {
		e := &s.ring[s.at(i)]
		n += wire.VarintLen(int64(e.id)) + wire.UvarintLen(uint64(e.user)) + wire.VarintLen(int64(e.parent))
		n += index(e)
	}
	for i := range s.pinned {
		if s.pinned[i].count() > 0 {
			n += index(&s.pinned[i])
		}
	}
	n += wire.UvarintLen(uint64(len(s.logs)))
	for u, l := range s.logs {
		n += wire.UvarintLen(uint64(u)) + wire.UvarintLen(uint64(len(l.list)))
		for _, c := range l.list {
			n += wire.UvarintLen(uint64(c.V)) + wire.VarintLen(int64(c.T))
		}
	}
	cold, err := wire.Size(func(w io.Writer) error { return s.saveCold(wire.NewWriter(w)) })
	return n + cold, err
}

// Restore deserializes a stream saved by Save. The returned stream is fully
// independent of the reader's backing storage except for the cold tier: a
// version-2 payload with cold extents re-adopts the referenced segment
// files from store (verifying each segment's CRC and size against the
// saved manifest) instead of rehydrating their entries — the boot-time
// mapping that keeps restart cost proportional to hot state. store and
// budget are attached to the restored stream either way (see SetCold); a
// payload with cold extents but a nil store is an error.
func Restore(r io.Reader, store ColdStore, budget int64) (*Stream, error) {
	rr := wire.NewReader(r)
	version := rr.Uvarint()
	if rr.Err() == nil && (version < 1 || version > streamPayloadVersion) {
		return nil, fmt.Errorf("stream: unsupported payload version %d", version)
	}
	s := New()
	s.SetCold(store, budget)
	s.horizon = ActionID(rr.Varint())
	s.last = ActionID(rr.Varint())
	if rr.Err() == nil && s.horizon < 0 {
		return nil, fmt.Errorf("stream: negative horizon %d", s.horizon)
	}

	// Length claims are validated loosely here (the SIM2 container already
	// CRC-protects payloads); capacity hints are clamped so a corrupt claim
	// cannot force a giant allocation before the decode loop fails.
	nWindow := rr.Len(wire.MaxLen)
	s.ring = make([]entry, 0, min(nWindow, 1<<20))
	for i := 0; i < nWindow && rr.Err() == nil; i++ {
		e := entry{
			id:     ActionID(rr.Varint()),
			user:   UserID(rr.Uvarint()),
			parent: ActionID(rr.Varint()),
		}
		switch {
		case rr.Err() != nil:
			continue
		case e.id < s.horizon || e.id > s.last:
			return nil, fmt.Errorf("stream: windowed action %d outside [horizon %d, last %d]", e.id, s.horizon, s.last)
		case len(s.ring) > 0 && e.id <= s.ring[len(s.ring)-1].id:
			return nil, fmt.Errorf("stream: window IDs do not increase at action %d", e.id)
		case e.parent != NoParent && e.parent >= e.id:
			return nil, fmt.Errorf("stream: windowed action %d has parent %d", e.id, e.parent)
		}
		s.ring = append(s.ring, e) // refs stay 0 until the index record
	}
	s.rlen = len(s.ring)

	// Index records at or above the horizon complete their windowed action;
	// those below it are the pinned ancestors, in the ascending ID order
	// Save writes them in.
	nIdx := rr.Len(wire.MaxLen)
	for i := 0; i < nIdx && rr.Err() == nil; i++ {
		id := ActionID(rr.Varint())
		user := UserID(rr.Uvarint())
		parent := ActionID(rr.Varint())
		refs := rr.Varint()
		switch {
		case rr.Err() != nil:
			continue
		case refs < 1 || refs >= cutBit:
			return nil, fmt.Errorf("stream: index record %d has reference count %d", id, refs)
		case parent != NoParent && parent >= id:
			return nil, fmt.Errorf("stream: index record %d has parent %d", id, parent)
		case id < s.horizon:
			if n := len(s.pinned); n > 0 && id <= s.pinned[n-1].id {
				return nil, fmt.Errorf("stream: pinned index records do not increase at %d", id)
			}
			s.pinned = append(s.pinned, entry{id: id, parent: parent, user: user, refs: uint32(refs)})
			continue
		}
		j := s.slot(id)
		if j < 0 {
			return nil, fmt.Errorf("stream: index record %d at or above horizon %d is missing from the window", id, s.horizon)
		}
		e := &s.ring[j]
		if user != e.user || (parent != e.parent && parent != NoParent) {
			return nil, fmt.Errorf("stream: index record %d disagrees with its windowed action", id)
		}
		e.refs = uint32(refs)
		if parent != e.parent {
			e.refs |= cutBit
		}
	}
	if rr.Err() == nil {
		for _, e := range s.ring {
			if e.refs == 0 {
				return nil, fmt.Errorf("stream: windowed action %d has no index record", e.id)
			}
		}
	}

	nLogs := rr.Len(wire.MaxLen)
	s.logs = make(map[UserID]*userLog, min(nLogs, 1<<20))
	for i := 0; i < nLogs && rr.Err() == nil; i++ {
		u := UserID(rr.Uvarint())
		n := rr.Len(wire.MaxLen)
		l := &userLog{list: make([]Contrib, 0, min(n, 1<<20))}
		for j := 0; j < n && rr.Err() == nil; j++ {
			l.list = append(l.list, Contrib{
				V: UserID(rr.Uvarint()),
				T: ActionID(rr.Varint()),
			})
		}
		s.logs[u] = l
		s.hotBytes += int64(len(l.list)) * contribBytes
		s.capBytes += int64(cap(l.list)) * contribBytes
	}

	// Versions 1 and 2 carry four cumulative Table 3 counters and the
	// all-time user set here, history-sized state nothing reads any more.
	if version < 3 {
		for i := 0; i < 4; i++ {
			rr.Varint()
		}
		for i, n := 0, rr.Len(wire.MaxLen); i < n && rr.Err() == nil; i++ {
			rr.Uvarint()
		}
	}

	if version >= 2 {
		nCold := rr.Len(wire.MaxLen)
		if nCold > 0 && store == nil {
			return nil, fmt.Errorf("stream: payload references %d cold extents but no cold store is configured", nCold)
		}
		if nCold > 0 {
			s.cold = make(map[UserID]Extent, min(nCold, 1<<20))
		}
		for i := 0; i < nCold && rr.Err() == nil; i++ {
			u := UserID(rr.Uvarint())
			ext := Extent{
				Seg:   SegmentID(rr.Uvarint()),
				Off:   rr.Varint(),
				Count: int(rr.Uvarint()),
				MaxT:  ActionID(rr.Varint()),
			}
			if rr.Err() != nil {
				break
			}
			// Re-adopt the extent: one store reference per extent, exactly
			// mirroring what WriteLogs handed out at spill time.
			if err := store.Retain(ext.Seg); err != nil {
				return nil, fmt.Errorf("stream: restoring cold extent for user %d: %w", u, err)
			}
			s.cold[u] = ext
			s.coldBytes += int64(ext.Count) * contribBytes
		}
		nSegs := rr.Len(wire.MaxLen)
		if nSegs > 0 && store == nil {
			return nil, fmt.Errorf("stream: payload lists %d cold segments but no cold store is configured", nSegs)
		}
		for i := 0; i < nSegs && rr.Err() == nil; i++ {
			seg := SegmentID(rr.Uvarint())
			crc := uint32(rr.Uvarint())
			size := rr.Varint()
			if rr.Err() != nil {
				break
			}
			st, err := store.Stat(seg)
			if err != nil {
				return nil, fmt.Errorf("stream: verifying segment %d: %w", seg, err)
			}
			if st.CRC != crc || st.Size != size {
				return nil, fmt.Errorf("stream: segment %d does not match manifest (crc %08x/%08x, size %d/%d)",
					seg, st.CRC, crc, st.Size, size)
			}
		}
	}
	if err := rr.Err(); err != nil {
		return nil, fmt.Errorf("stream: restoring: %w", err)
	}
	return s, nil
}

package stream

import (
	"slices"
	"sort"
)

// Tiered window state: the per-user contribution logs are split into a hot
// tier (the in-RAM userLogs of stream.go) and a cold tier of immutable
// on-disk segments reached through a ColdStore. Spilling moves a user's
// whole hot log into a new segment and replaces it with an Extent. Spilled
// entries then stay cold until they expire: they are never copied back into
// the hot tier.
//
// That residency rule is what keeps a budgeted tracker from thrashing. When
// a spilled user is touched again by ingest, the contribution grows a fresh
// hot log in front of the cold extent — no I/O. Action times are globally
// monotone, so every hot entry is newer than every cold entry, and the true
// merged log is exactly the hot list followed by the cold entries whose
// user has not re-contributed since the spill (concatenation plus dedup
// preserves descending recency). Queries materialize that merged prefix
// into reused scratch on demand (logPrefix), reading the extent through the
// store without changing what is resident; repeated reads are served by the
// OS page cache, not by re-inflating the hot tier.
//
// Spill writes happen only inside Advance, at the budget check, and only
// while the hot tier exceeds the configured budget: the per-action ingest
// path never performs I/O. When a both-tier user is picked for spilling
// again, the pass folds its old extent into the newly written segment (one
// read, then the old extent is released), so "at most one extent per user"
// stays invariant. Membership-only queries (Influencers) are answered from
// Extent.MaxT without touching the store, and a cold extent whose newest
// entry expires is dropped without ever being read — the expiry loop is
// guaranteed to visit it, because every log entry's timestamp is the ID of
// some retained action whose contributor set includes the log's owner.

// SegmentID identifies one immutable cold-segment file within a ColdStore.
type SegmentID uint64

// Extent locates one user's spilled contribution log inside a cold segment:
// Count entries of fixed width starting Off bytes into the segment's data
// area, newest first. MaxT caches the newest entry's time so membership
// queries and expiry decisions need no I/O.
type Extent struct {
	Seg   SegmentID
	Off   int64
	Count int
	MaxT  ActionID
}

// SegmentStat describes one live segment for the snapshot manifest: the
// data-section CRC and total file size recorded at write time and verified
// against the file on restore.
type SegmentStat struct {
	CRC  uint32
	Size int64
}

// ColdStore is the segment-file backend of the cold tier, implemented by
// dataio.SegmentStore. Implementations are single-writer, matching Stream.
//
// The store tracks a reference count per segment: WriteLogs starts a new
// segment with one reference per extent written, Release drops one, and
// Retain re-registers a reference when a restored stream re-adopts an
// extent. A segment whose count reaches zero is retired but NOT deleted —
// a durable snapshot on disk may still reference it — deletion is the
// caller's explicit garbage-collection step, taken only when it knows no
// snapshot references retired segments.
type ColdStore interface {
	// WriteLogs writes the given logs (each a descending-recency Contrib
	// list, all non-empty) into one new immutable segment and returns one
	// Extent per log, in input order. On error no extent is published and
	// the store is unchanged.
	WriteLogs(logs [][]Contrib) ([]Extent, error)
	// ReadLog returns the entries of ext appended to buf[:0]. The returned
	// slice is owned by the caller.
	ReadLog(ext Extent, buf []Contrib) ([]Contrib, error)
	// Retain adds one reference to seg, failing if the store does not have
	// a validated segment by that ID. Used on restore to re-adopt the
	// extents recorded in a snapshot.
	Retain(seg SegmentID) error
	// Release drops one reference to seg; at zero the segment is retired
	// (eligible for explicit GC, not deleted).
	Release(seg SegmentID)
	// Stat returns the manifest identity of a live segment.
	Stat(seg SegmentID) (SegmentStat, error)
}

// contribBytes is the budget-accounting cost of one hot log entry. A
// Contrib is 16 bytes with alignment padding (uint32 + int64).
const contribBytes = 16

// TierStats reports the split of retained per-user log state across the
// hot (resident) and cold (on-disk) tiers plus the cumulative tier-traffic
// counters, for snapshots, serving metrics and the memory benchmarks.
type TierStats struct {
	// HotLogBytes is the resident-entry estimate of the hot tier
	// (contribBytes per entry over all hot logs).
	HotLogBytes int64
	// ColdLogBytes is the on-disk entry footprint of the cold tier.
	ColdLogBytes int64
	// ColdUsers is the number of users holding a cold extent. A cold user
	// may also hold a hot log: contributions after the spill grow a hot
	// residue in front of the extent.
	ColdUsers int
	// Spills / SpilledLogs count spill passes and the logs they moved.
	Spills      int64
	SpilledLogs int64
	// ColdFaults counts cold-extent reads: query materializations that
	// merged spilled entries into their answer, and spill passes folding a
	// user's previous extent into a new segment. Reads never change
	// residency, so this is read traffic, not tier migration.
	ColdFaults int64
	// SpillErrs / ColdReadErrs count failed spill writes and failed
	// cold-extent reads. Both degrade capacity or completeness, never
	// correctness of acked data: a failed spill leaves the logs hot, a
	// failed read leaves the extent cold for a later retry and degrades
	// that one answer to the hot tier's entries.
	SpillErrs    int64
	ColdReadErrs int64
}

// SetCold attaches a cold-tier store and a hot-tier memory budget (in
// bytes of log entries). A nil store disables spilling; budget <= 0 with a
// store attached means "never spill" but still allows restoring snapshots
// that reference cold segments. Must be called before any Ingest.
func (s *Stream) SetCold(store ColdStore, budget int64) {
	s.store = store
	s.budget = budget
}

// TierStats returns the current hot/cold split and tier-traffic counters.
func (s *Stream) TierStats() TierStats {
	st := s.tier
	st.HotLogBytes = s.hotBytes
	st.ColdLogBytes = s.coldBytes
	st.ColdUsers = len(s.cold)
	return st
}

// ColdErr returns the first cold-tier I/O error encountered by a query
// that has no error return of its own (a failed cold read inside Influence
// or friends), else the latest spill attempt's failure. The extent stays
// cold, so a read failure is transient if the underlying fault is; it is
// sticky for observability. A failed spill leaves every log hot and every
// answer exact, and the next successful spill clears it.
func (s *Stream) ColdErr() error {
	if s.coldErr != nil {
		return s.coldErr
	}
	return s.spillErr
}

// logPrefix returns u's influence prefix for the suffix starting at start:
// the hot entries with T >= start followed by the cold entries with
// T >= start whose user has not re-contributed since the spill. It is the
// single read gateway of the tiered log — and it never changes residency:
// the merged view lives in reused scratch, valid until the next influence
// query, Ingest, or Advance. A cold read failure degrades the answer to
// the hot entries and returns the error (also recorded sticky in ColdErr).
func (s *Stream) logPrefix(u UserID, start ActionID) ([]Contrib, error) {
	if start < s.horizon {
		// Query semantics: starts older than the horizon are answered as if
		// start == Horizon(). Hot logs are pruned eagerly so their prefixes
		// enforce this on their own; the clamp makes the cold prefix —
		// pruned only lazily, here — agree.
		start = s.horizon
	}
	var hot []Contrib
	if l := s.logs[u]; l != nil {
		hot = l.prefix(start)
	}
	if s.cold == nil {
		// Fast path: the cold tier materializes only at the first spill, so
		// unbudgeted streams pay one nil check here and nothing else.
		return hot, nil
	}
	s.coldPrev = -1
	ext, ok := s.cold[u]
	if !ok || ext.MaxT < start {
		// No extent, or every cold entry predates the suffix: the newest
		// cold time already misses, so the whole extent does — no I/O.
		return hot, nil
	}
	cold, err := s.readCold(ext)
	if err != nil {
		return hot, err
	}
	cold = PrefixFor(cold, start)
	if len(hot) == 0 {
		return cold, nil
	}
	s.coldPrev = s.missedPrev(u, cold)
	s.mergeBuf = mergeTiers(s.mergeBuf[:0], hot, cold)
	return s.mergeBuf, nil
}

// readCold reads ext into the shared decode scratch and counts the fault; the
// entries are valid until the next cold read. A failed read is counted and
// kept sticky (ColdErr), and leaves the extent cold for a later retry.
func (s *Stream) readCold(ext Extent) ([]Contrib, error) {
	list, err := s.store.ReadLog(ext, s.readBuf[:0])
	if err != nil {
		s.tier.ColdReadErrs++
		if s.coldErr == nil {
			s.coldErr = err
		}
		return nil, err
	}
	s.readBuf = list[:0]
	s.tier.ColdFaults++
	return list, nil
}

// mergeTiers appends to dst the merged log of a user present in both tiers:
// hot entries are all newer than cold ones (times are globally monotone), so
// it is hot followed by the cold entries whose user has not re-contributed
// since the spill.
func mergeTiers(dst, hot, cold []Contrib) []Contrib {
	dst = append(dst, hot...)
	for _, c := range cold {
		stale := false
		for _, h := range hot {
			if h.V == c.V {
				stale = true
				break
			}
		}
		if !stale {
			dst = append(dst, c)
		}
	}
	return dst
}

// missedPrev looks up, in u's cold entries, the performers the current
// ingestion call inserted into u's hot log in front of the extent (coldMiss)
// — the entries logPrefix's merge is about to drop as stale — and returns
// the oldest of their times, or -1 when there is no such performer or one of
// them has no cold entry either.
func (s *Stream) missedPrev(u UserID, cold []Contrib) ActionID {
	prev := ActionID(-1)
	for _, m := range s.coldMiss {
		if m.u != u {
			continue
		}
		i := slices.IndexFunc(cold, func(c Contrib) bool { return c.V == m.v })
		if i < 0 {
			return -1
		}
		if prev < 0 || cold[i].T < prev {
			prev = cold[i].T
		}
	}
	return prev
}

// ColdPrev completes, under a cold tier, the Delta.Prev values of -1 that the
// current ingestion call reported for contributor u, once u's influence set
// has been queried (InfluenceRecency(u, start), the last query made): the
// oldest time at which a performer missing from u's hot log still stood in
// u's cold extent at or after start, or -1 when some such performer stood in
// neither tier from start on — the same answer an unbudgeted stream's Prev
// gives for every suffix start >= start. The merge that drops those stale
// cold entries finds them, so it costs no read of its own.
func (s *Stream) ColdPrev() ActionID {
	if s.cold == nil {
		return -1
	}
	return s.coldPrev
}

// dropDeadExtent removes u's cold extent if its newest entry has expired,
// without reading it. Called from the expiry loop in Advance, which visits
// every owner of an expiring entry.
func (s *Stream) dropDeadExtent(u UserID) {
	ext, ok := s.cold[u]
	if !ok || ext.MaxT >= s.horizon {
		return
	}
	delete(s.cold, u)
	s.coldBytes -= int64(ext.Count) * contribBytes
	s.store.Release(ext.Seg)
}

// spillCandidate orders the hot logs for a spill pass.
type spillCandidate struct {
	u UserID
	l *userLog
}

// maybeSpill runs the budget check at the expiry boundary: while the hot
// tier exceeds the budget, the longest-idle logs (smallest newest-entry
// time) are batch-written into one new segment until the hot tier fits
// under the low watermark. The watermark hysteresis (3/4 of the budget)
// keeps a tracker hovering at its budget from writing one tiny segment per
// expiry batch.
//
// A candidate that already holds a cold extent (a spilled user that was
// touched again) is folded: its old extent is read, merged behind the hot
// residue with the usual dedup, written as part of the new segment, and
// only then released — preserving "at most one extent per user" without
// ever losing entries. If the fold read fails the candidate is skipped
// (it simply stays both-tier) and the pass moves on.
func (s *Stream) maybeSpill() {
	if s.store == nil || s.budget <= 0 || s.hotBytes <= s.budget {
		return
	}
	low := s.budget - s.budget/4

	cands := make([]spillCandidate, 0, len(s.logs))
	for u, l := range s.logs {
		if len(l.list) > 0 {
			cands = append(cands, spillCandidate{u, l})
		}
	}
	// Longest-idle first; user ID breaks ties so the pass is deterministic
	// regardless of map iteration order.
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].l.list[0].T != cands[j].l.list[0].T {
			return cands[i].l.list[0].T < cands[j].l.list[0].T
		}
		return cands[i].u < cands[j].u
	})

	var (
		users    []UserID
		logs     [][]Contrib
		reclaims int64
	)
	for _, c := range cands {
		if s.hotBytes-reclaims <= low {
			break
		}
		list := c.l.list
		if old, fold := s.cold[c.u]; fold {
			prev, err := s.readCold(old)
			if err != nil {
				continue
			}
			// Lazy prune of the old extent, then the standard merge.
			prev = PrefixFor(prev, s.horizon)
			list = mergeTiers(make([]Contrib, 0, len(list)+len(prev)), list, prev)
		}
		users = append(users, c.u)
		logs = append(logs, list)
		reclaims += int64(len(c.l.list)) * contribBytes
	}
	if len(logs) == 0 {
		return
	}

	exts, err := s.store.WriteLogs(logs)
	if err != nil {
		// The segment was not published: every log stays hot and correct,
		// we are merely still over budget. The next Advance retries.
		s.tier.SpillErrs++
		s.spillErr = err
		return
	}
	s.spillErr = nil
	if s.cold == nil {
		s.cold = make(map[UserID]Extent, len(exts))
	}
	for i, u := range users {
		if old, folded := s.cold[u]; folded {
			// Still the extent the fold above read: nothing replaced it yet.
			s.coldBytes -= int64(old.Count) * contribBytes
			s.store.Release(old.Seg)
		}
		s.cold[u] = exts[i]
		s.coldBytes += int64(exts[i].Count) * contribBytes
		s.dropLog(u, s.logs[u])
	}
	s.hotBytes -= reclaims
	s.tier.Spills++
	s.tier.SpilledLogs += int64(len(users))
}

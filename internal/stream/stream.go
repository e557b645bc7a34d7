package stream

import (
	"cmp"
	"slices"
	"sort"
)

// entry is the retained metadata of one action, kept for ancestor-chain
// resolution. An action's entry must outlive the action itself: at window
// W_t the triggering action a' of a live action need not be in W_t anymore
// (paper §3, Example 1), so entries are reference counted. The count holds
// one "liveness" reference while the action is newer than the retention
// horizon plus one reference per retained child entry. An entry holds no
// pointer, so neither the ring nor the pinned list gives the collector
// anything to mark.
type entry struct {
	id     ActionID
	parent ActionID // as ingested; see cutBit
	user   UserID
	refs   uint32 // reference count, plus cutBit
}

// cutBit in entry.refs marks an action whose parent was already collected
// (or never seen) when it was ingested: the chain treats it as a root, and
// the index section saves its parent as NoParent. Influence through the
// missing parent is unrecoverable, which is correct: no retained window
// suffix can include evidence of it.
const cutBit = 1 << 31

// count is the entry's reference count.
func (e entry) count() uint32 { return e.refs &^ cutBit }

// up returns the parent the ancestor chain continues at, NoParent for a root
// or a cut action.
func (e entry) up() ActionID {
	if e.refs&cutBit != 0 {
		return NoParent
	}
	return e.parent
}

// Contrib pairs an influenced user with the time of the most recent action
// evidencing the influence.
type Contrib struct {
	V UserID
	T ActionID
}

// userLog is the influence record of one influencer u: the distinct users v
// that performed an action with u on its ancestor chain, ordered by the time
// of their LATEST such action, newest first.
//
// This ordering makes every query a prefix: v ∈ I_s(u) exactly when v's
// latest contribution time is >= s, so the influence set for suffix start s
// is the maximal prefix with T >= s — and suffixes for later starts are
// prefixes of it. The list is maintained incrementally by move-to-front on
// each contribution (new actions always carry the globally newest time) and
// pruned by truncating the tail as the retention horizon advances.
type userLog struct {
	list []Contrib
}

// touch records a contribution (v, t); t must be the newest time ever seen
// (actions arrive in timestamp order). v moves to — or is inserted at — the
// front. Cost is v's current recency rank; recently active users sit near
// the front, so the common case is short. It returns the time of the entry
// v held until now, -1 when it held none: for every suffix start at or
// before that time v was a member already, and this touch changed nothing.
func (l *userLog) touch(v UserID, t ActionID) ActionID {
	list := l.list
	for i := range list {
		if list[i].V == v {
			prev := list[i].T
			copy(list[1:i+1], list[:i])
			list[0] = Contrib{v, t}
			return prev
		}
	}
	l.list = append(l.list, Contrib{})
	copy(l.list[1:], l.list)
	l.list[0] = Contrib{v, t}
	return -1
}

// prune truncates entries whose latest contribution predates horizon. A user
// v dropped here cannot belong to any retained suffix: membership needs some
// contribution >= s >= horizon, and the latest one is already older.
func (l *userLog) prune(horizon ActionID) {
	i := sort.Search(len(l.list), func(i int) bool { return l.list[i].T < horizon })
	l.list = l.list[:i]
}

// prefix returns the influence set for suffix start s.
func (l *userLog) prefix(start ActionID) []Contrib {
	return PrefixFor(l.list, start)
}

// Delta describes the effect of ingesting one action: the users whose
// contribution log it touched (the action's user plus every distinct user on
// its ancestor chain), the time up to which each of them already counted the
// performer, and the chain depth. It is what the Set-Stream Mapping (paper
// §4.2) turns into set-stream elements: the influence set I_s(u) of
// contributor u gained Action.User for the suffix starts s > Prev and is
// unchanged for the others. The Stream only reports that; the caller
// (core.Framework) is what feeds a checkpoint only when its set changed.
type Delta struct {
	// Action is the ingested action.
	Action Action
	// Contributors lists, without duplicates, the users this action counts
	// Action.User as influenced by: Action.User itself and the users of all
	// ancestor actions. The slice is owned by the Stream and valid until the
	// next ingestion call (Ingest or IngestBatch).
	Contributors []UserID
	// Prev is parallel to Contributors: the time of the performer's previous
	// contribution to that contributor as its hot log held it, -1 when the
	// hot log held none. Under a cold tier a -1 may hide an older entry in
	// the contributor's spilled extent, which ingest never reads; ColdPrev
	// completes it once the contributor's influence set is queried. Owned
	// and valid like Contributors.
	Prev []ActionID
	// Depth is the number of ancestors of the action in its diffusion tree
	// (0 for a root action). Table 3 of the paper reports its average as
	// "Avg. depth"; it is the d in the O(d·g·N) update cost of IC.
	Depth int
}

// Stream ingests a social action stream in timestamp order and maintains the
// diffusion index and per-user contribution logs needed to answer influence
// set queries for any suffix start within the retention horizon.
//
// A Stream is not safe for concurrent use; wrap it in a mutex or confine it
// to one goroutine (the intended use inside a Tracker).
type Stream struct {
	logs map[UserID]*userLog

	// ring is the FIFO of retained actions (IDs >= horizon) in ID order, a
	// circular buffer of len(ring) slots: the i-th oldest of the rlen
	// retained entries is ring[at(i)], the oldest ring[rstart]. ingest adds
	// at the head, growing a full buffer by a quarter; Advance expires the
	// oldest without moving the rest; a lookup indexes the ring by its
	// offset from the head (see slot).
	ring   []entry
	rstart int
	rlen   int
	// pinned holds, in ascending ID order, the entries that passed the
	// horizon while a retained child still reaches them: they enter in ID
	// order as Advance expires them, and are found by binary search. An
	// entry whose count fell to 0 is dead (dead counts them) and stays in
	// place until more than half the list is dead, when Advance compacts it.
	pinned  []entry
	dead    int
	horizon ActionID
	last    ActionID

	// seen implements O(1) amortized deduplication for Contributors and
	// Influence without clearing a map per call: an entry is "marked" when
	// its stored generation equals gen. nextGen keeps it the size of the
	// window, not of history.
	seen map[UserID]uint64
	gen  uint64

	expireBuf []UserID

	// touched lists the contributors whose log ingest has changed since the
	// last DrainTouched, repeats included, so a reader that caches influence
	// sets between drains (sim.Tracker's published view) can refresh exactly
	// those. It holds at most maxTouched users; touchedLost records that
	// more were dropped and the reader must assume every log changed.
	touched     []UserID
	touchedLost bool

	// logChunk is an arena of userLog headers handed out to first-touched
	// users: allocating them in blocks replaces one heap object per new
	// user with one per logChunkSize users on the ingestion path.
	logChunk []userLog

	// Ingestion scratch (see IngestBatch): one contributor arena for the
	// whole call plus the per-action offsets into it, so every Delta of a
	// batch stays readable until the next ingestion call.
	batchArena []UserID
	batchPrev  []ActionID
	batchOffs  []int
	deltaBuf   []Delta

	// Cold tier (see cold.go): per-user extents of spilled logs, the
	// segment store behind them, and the hot-tier budget that drives
	// spilling. A nil store disables the tier entirely; the hot path only
	// pays a nil-map check.
	cold      map[UserID]Extent
	store     ColdStore
	budget    int64
	hotBytes  int64 // resident log-entry bytes (contribBytes per hot entry)
	capBytes  int64 // the same logs at capacity: contribBytes per allocated entry
	coldBytes int64 // on-disk log-entry bytes across live extents
	tier      TierStats
	coldErr   error
	readBuf   []Contrib // scratch for cold-extent decodes (logPrefix, spill folds)
	mergeBuf  []Contrib // scratch for merged both-tier views (logPrefix)
	// coldMiss lists the (contributor, performer) touches of the current
	// ingestion call that found no hot entry while the contributor holds a
	// cold extent: the Delta.Prev values only the extent can complete.
	// coldPrev is what logPrefix's last merge completed them to (ColdPrev).
	coldMiss []missedTouch
	coldPrev ActionID
}

// missedTouch is a touch of u's log by performer v whose previous entry, if
// there is one, lies in u's cold extent.
type missedTouch struct{ u, v UserID }

// logChunkSize is the arena block size for userLog headers.
const logChunkSize = 256

// seenSlack is how far Stream.seen may outgrow twice the live logs before
// nextGen empties it.
const seenSlack = 1024

// maxTouched bounds Stream.touched. Past a few hundred touched logs a reader
// does as well re-reading the few hundred sets it caches as looking each
// touched user up in them, so there is nothing to gain from a longer list.
const maxTouched = 1024

// New returns an empty Stream.
func New() *Stream { return NewSized(0) }

// NewSized returns an empty Stream with its per-user maps pre-sized for
// usersHint distinct users, avoiding rehash-and-copy churn during the
// initial window fill. A hint of 0 is New's default incremental growth; the
// hint is advisory and never limits capacity.
func NewSized(usersHint int) *Stream {
	if usersHint < 0 {
		usersHint = 0
	}
	return &Stream{
		logs:    make(map[UserID]*userLog, usersHint),
		horizon: 0,
		last:    -1,
		seen:    make(map[UserID]uint64, usersHint),
	}
}

// Last returns the ID of the most recently ingested action, or -1 if none.
func (s *Stream) Last() ActionID { return s.last }

// Horizon returns the oldest retained timestamp: queries with start >=
// Horizon() are exact.
func (s *Stream) Horizon() ActionID { return s.horizon }

// Len returns the number of retained actions.
func (s *Stream) Len() int { return s.rlen }

// at returns the ring slot of the i-th oldest retained action, 0 <= i <
// len(ring): the ring wraps once, so one subtraction replaces a modulo.
func (s *Stream) at(i int) int {
	if i += s.rstart; i >= len(s.ring) {
		i -= len(s.ring)
	}
	return i
}

// push appends e at the ring's head, first growing a full ring by a quarter
// (at least minRing slots) into a buffer that starts at its oldest entry.
func (s *Stream) push(e entry) {
	if s.rlen == len(s.ring) {
		grown := make([]entry, max(minRing, len(s.ring)+len(s.ring)/4))
		n := copy(grown, s.ring[s.rstart:])
		copy(grown[n:], s.ring[:s.rstart])
		s.ring, s.rstart = grown, 0
	}
	s.ring[s.at(s.rlen)] = e
	s.rlen++
}

// minRing is the slot count of a ring's first buffer.
const minRing = 16

// nextGen starts a new deduplication generation: nothing is marked. Marks of
// past generations are dead weight, and a user an action in the window marks
// has a log or a cold extent, so once seen holds more than twice that many
// entries (plus slack for small windows) most of them belong to users long
// expired and it is emptied — an absent entry reads as unmarked, gen only
// rises. As many marks again as there are live users come between two
// clearings, so the cost stays O(1) amortized per mark.
func (s *Stream) nextGen() {
	s.gen++
	if len(s.seen) > 2*(len(s.logs)+len(s.cold))+seenSlack {
		clear(s.seen)
	}
}

// mark returns true the first time it is called for u in the current
// generation.
func (s *Stream) mark(u UserID) bool {
	if s.seen[u] == s.gen {
		return false
	}
	s.seen[u] = s.gen
	return true
}

// ingest performs the index and log maintenance of one action that has
// passed IngestBatch's order check, appending the action's distinct
// contributors to batchArena and the performer's previous time in each one's
// log to batchPrev (Delta.Prev), and returning the chain depth.
func (s *Stream) ingest(a Action) int {
	s.last = a.ID

	e := entry{id: a.ID, parent: a.Parent, user: a.User, refs: 1}
	if !a.Root() && !s.pin(a.Parent) {
		e.refs |= cutBit
	}
	s.push(e)

	// Resolve the ancestor chain and record contributions.
	base := len(s.batchArena)
	arena, depth := s.chain(e, s.batchArena)
	s.batchArena = arena
	for _, u := range arena[base:] {
		// A spilled contributor grows a fresh hot log in front of its cold
		// extent — ingest never reads the cold tier. The hot residue dedups
		// within itself via touch; a contributor also present in the extent
		// leaves a stale cold copy behind, which queries (logPrefix) and
		// re-spills (maybeSpill) drop during their merge.
		l := s.logs[u]
		if l == nil {
			if len(s.logChunk) == 0 {
				s.logChunk = make([]userLog, logChunkSize)
			}
			l = &s.logChunk[0]
			s.logChunk = s.logChunk[1:]
			s.logs[u] = l
		}
		c0 := cap(l.list)
		prev := l.touch(a.User, a.ID)
		if prev < 0 {
			s.hotBytes += contribBytes
			s.capBytes += int64(cap(l.list)-c0) * contribBytes
			if _, spilled := s.cold[u]; spilled {
				// The entry this touch supersedes may be in the extent:
				// remembered, not read (ColdPrev).
				s.coldMiss = append(s.coldMiss, missedTouch{u, a.User})
			}
		}
		s.batchPrev = append(s.batchPrev, prev)
		if len(s.touched) < maxTouched {
			s.touched = append(s.touched, u)
		} else {
			s.touchedLost = true
		}
	}

	return depth
}

// chain walks the ancestor chain of the retained entry e and appends the
// distinct users on it (e's own user first) to buf, returning the extended
// slice and the number of ancestors walked.
func (s *Stream) chain(e entry, buf []UserID) ([]UserID, int) {
	s.nextGen()
	s.mark(e.user) // nothing else is marked yet
	buf = append(buf, e.user)
	depth := 0
	for pid := e.up(); pid != NoParent; pid = e.up() {
		var ok bool
		if e, ok = s.lookup(pid); !ok {
			break
		}
		depth++
		if s.mark(e.user) {
			buf = append(buf, e.user)
		}
	}
	return buf, depth
}

// slot returns the ring slot of the retained action id, or -1. The
// position is id's offset from the head when the ring's IDs are contiguous,
// the common case and the one a parent a few IDs back hits at once. IDs
// with gaps (time-based trackers, and every cluster shard, which sees only
// its own users' actions) put id at or after that offset, where a binary
// search finds it.
func (s *Stream) slot(id ActionID) int {
	n := s.rlen
	if n == 0 {
		return -1
	}
	head := s.ring[s.at(n-1)].id
	if id < s.ring[s.rstart].id || id > head {
		return -1
	}
	// Every entry before position n-1-(head-id) holds an ID below id.
	lo := max(n-1-int(head-id), 0)
	if j := s.at(lo); s.ring[j].id == id {
		return j
	}
	for lo, hi := lo+1, n; lo < hi; {
		m := int(uint(lo+hi) >> 1)
		switch j := s.at(m); {
		case s.ring[j].id == id:
			return j
		case s.ring[j].id < id:
			lo = m + 1
		default:
			hi = m
		}
	}
	return -1
}

// pinnedAt returns the position of the live pinned ancestor id in pinned,
// or -1.
func (s *Stream) pinnedAt(id ActionID) int {
	i, ok := slices.BinarySearchFunc(s.pinned, id, func(e entry, id ActionID) int {
		return cmp.Compare(e.id, id)
	})
	if !ok || s.pinned[i].count() == 0 {
		return -1
	}
	return i
}

// pins returns the number of live pinned ancestors.
func (s *Stream) pins() int { return len(s.pinned) - s.dead }

// lookup returns the entry of a retained action: one in the ring, or a
// pinned ancestor below the horizon.
func (s *Stream) lookup(id ActionID) (entry, bool) {
	if i := s.slot(id); i >= 0 {
		return s.ring[i], true
	}
	if i := s.pinnedAt(id); i >= 0 {
		return s.pinned[i], true
	}
	return entry{}, false
}

// pin adds a child's reference to the retained action id, reporting false
// when id is not retained.
func (s *Stream) pin(id ActionID) bool {
	if i := s.slot(id); i >= 0 {
		s.ring[i].refs++
		return true
	}
	if i := s.pinnedAt(id); i >= 0 {
		s.pinned[i].refs++
		return true
	}
	return false
}

// Advance raises the retention horizon: actions with ID < horizon are
// expired, their entries released (recursively unpinning ancestor entries
// with no remaining live descendants) and their contribution-log entries
// pruned. The caller — the checkpoint framework — passes the minimum start
// time over all live checkpoints, which may be older than the window start
// because SIC retains one expired checkpoint Λ[x0] (paper Algorithm 2).
func (s *Stream) Advance(horizon ActionID) {
	if horizon <= s.horizon {
		// The horizon may sit still for long stretches (SIC holds it at the
		// retained expired checkpoint's start), but the budget check must
		// still run: ingest grows the hot tier between horizon movements.
		// When under budget this is a single comparison; when over, the
		// watermark hysteresis in maybeSpill amortizes the spill I/O.
		s.maybeSpill()
		return
	}
	s.horizon = horizon
	for s.rlen > 0 && s.ring[s.rstart].id < horizon {
		e := s.ring[s.rstart]
		// Prune the logs of exactly the users that contributed to the
		// expiring action; every stale log entry has the timestamp of some
		// expiring action, so this touches each log only when needed
		// instead of sweeping the whole map per call.
		s.expireBuf, _ = s.chain(e, s.expireBuf[:0])
		for _, u := range s.expireBuf {
			if l := s.logs[u]; l != nil {
				n0 := len(l.list)
				l.prune(horizon)
				s.hotBytes -= int64(n0-len(l.list)) * contribBytes
				if len(l.list) == 0 {
					s.dropLog(u, l)
				}
			}
			if s.cold != nil {
				// A cold extent whose newest entry just expired is dropped
				// without ever reading it; partially stale extents are
				// pruned lazily at fault-in.
				s.dropDeadExtent(u)
			}
		}
		s.release(e)
		s.rstart, s.rlen = s.at(1), s.rlen-1
	}
	if 2*s.dead > len(s.pinned) {
		live := s.pinned[:0]
		for _, e := range s.pinned {
			if e.count() > 0 {
				live = append(live, e)
			}
		}
		s.pinned, s.dead = live, 0
	}
	// Spilling happens only here, at the expiry boundary: the per-action
	// ingest path never performs I/O.
	s.maybeSpill()
}

// dropLog removes u's hot log l from the index: expiry emptied it, or a spill
// moved it to the cold tier. The backing array is released explicitly — the
// header lives in a logChunk arena that stays reachable while any sibling is
// live, so a dangling list field would pin the dead log indefinitely.
func (s *Stream) dropLog(u UserID, l *userLog) {
	s.capBytes -= int64(cap(l.list)) * contribBytes
	l.list = nil
	delete(s.logs, u)
}

// DrainTouched returns the contributors whose log ingest has changed since
// the previous call, in touch order with repeats, and starts a new list. ok
// is false when the list overflowed: some touched users are missing from it.
// The slice is valid until the next Ingest or IngestBatch.
func (s *Stream) DrainTouched() (users []UserID, ok bool) {
	users, ok = s.touched, !s.touchedLost
	s.touched, s.touchedLost = s.touched[:0], false
	return users, ok
}

// release drops the liveness reference of the expiring entry e. An entry a
// retained child still reaches is appended to the pinned list — every
// entry there expired earlier, so the list stays in ID order; one nothing
// reaches is collected, unpinning its ancestors in turn. Those are all
// pinned already: a parent precedes its child, and the ring expires in ID
// order. A collected ancestor stays in the list, dead.
func (s *Stream) release(e entry) {
	if e.refs--; e.count() > 0 {
		s.pinned = append(s.pinned, e)
		return
	}
	for id := e.up(); id != NoParent; id = e.up() {
		i := s.pinnedAt(id)
		if i < 0 {
			return
		}
		p := &s.pinned[i]
		if p.refs--; p.count() > 0 {
			return
		}
		s.dead++
		e = *p
	}
}

// Influence visits the distinct users influenced by u, counting only actions
// with ID >= start (the influence set I_s(u) of paper Definition 1 for the
// window suffix beginning at s). Visiting stops early if visit returns
// false. start values older than Horizon() are answered as if start ==
// Horizon().
func (s *Stream) Influence(u UserID, start ActionID, visit func(UserID) bool) {
	list, _ := s.logPrefix(u, start) // a failed cold read degrades to hot-only (sticky ColdErr)
	for _, c := range list {
		if !visit(c.V) {
			return
		}
	}
}

// InfluenceRecency returns the influence set of u for the suffix starting at
// start as (user, last-contribution-time) pairs sorted by descending time.
//
// Because v ∈ I_s(u) exactly when v's latest contribution time is >= s, the
// influence set for ANY later start s' > s is a prefix of the returned list
// (slice it with PrefixFor). The checkpoint frameworks exploit that: one
// call per contributor serves every checkpoint. The returned slice aliases
// internal state (possibly reused scratch holding a merged hot/cold view)
// and is valid until the next influence query, Ingest, or Advance call.
func (s *Stream) InfluenceRecency(u UserID, start ActionID) []Contrib {
	list, _ := s.logPrefix(u, start) // a failed cold read degrades to hot-only (sticky ColdErr)
	return list
}

// PrefixFor returns the prefix of a descending-time Contrib list whose
// entries have T >= start — the influence set for the suffix beginning at
// start.
func PrefixFor(list []Contrib, start ActionID) []Contrib {
	i := sort.Search(len(list), func(i int) bool { return list[i].T < start })
	return list[:i]
}

// InfluenceSet materializes I_s(u) into a fresh slice.
func (s *Stream) InfluenceSet(u UserID, start ActionID) []UserID {
	var out []UserID
	s.Influence(u, start, func(v UserID) bool {
		out = append(out, v)
		return true
	})
	return out
}

// Influencers visits every user with a non-empty influence set for the
// suffix starting at start. Visiting stops early if visit returns false.
func (s *Stream) Influencers(start ActionID, visit func(UserID) bool) {
	for u, l := range s.logs {
		if len(l.prefix(start)) > 0 {
			if !visit(u) {
				return
			}
		}
	}
	// Cold extents answer membership from their cached newest entry time —
	// no I/O. A live extent always has MaxT >= horizon (fully expired ones
	// are dropped by Advance), so MaxT >= start is exactly "non-empty
	// influence set for this suffix".
	for u, ext := range s.cold {
		if ext.MaxT < start {
			continue
		}
		if _, hot := s.logs[u]; hot {
			// Both-tier user (re-touched after its spill): already visited
			// above — the hot entries are strictly newer than MaxT, so its
			// hot prefix was non-empty too.
			continue
		}
		if !visit(u) {
			return
		}
	}
}

// Contributors resolves the ancestor chain of the retained action id and
// appends the distinct contributing users (the action's own user first) to
// buf, returning the extended slice. It returns buf unchanged when id is not
// retained.
func (s *Stream) Contributors(id ActionID, buf []UserID) []UserID {
	e, ok := s.lookup(id)
	if !ok {
		return buf
	}
	buf, _ = s.chain(e, buf)
	return buf
}

// Stats summarizes a whole action stream, not a window of it; it backs the
// Table 3 reproduction.
type Stats struct {
	Users        int
	Actions      int64
	AvgRespDist  float64 // mean t - t' over non-root actions
	AvgDepth     float64 // mean ancestor-chain length
	RootFraction float64
}

// Summarize computes the Table 3 statistics of actions by ingesting them into
// a bare Stream that never expires anything, so every chain is resolved to
// its root. It is offline accounting: a serving Stream keeps no history-sized
// state for it.
func Summarize(actions []Action) (Stats, error) {
	s := New()
	users := map[UserID]struct{}{}
	var depth, respDist, responses int64
	for _, a := range actions {
		d, err := s.Ingest(a)
		if err != nil {
			return Stats{}, err
		}
		users[a.User] = struct{}{}
		depth += int64(d.Depth)
		if !a.Root() {
			respDist += int64(a.ID - a.Parent)
			responses++
		}
	}
	st := Stats{Users: len(users), Actions: int64(len(actions))}
	if responses > 0 {
		st.AvgRespDist = float64(respDist) / float64(responses)
	}
	if st.Actions > 0 {
		st.AvgDepth = float64(depth) / float64(st.Actions)
		st.RootFraction = float64(st.Actions-responses) / float64(st.Actions)
	}
	return st, nil
}

// RetainedBytesEstimate is a rough accounting of RESIDENT live index size
// — what the stream actually holds in RAM, excluding spilled cold-tier
// entries — used by memory-focused benchmarks and the ablation comparing
// shared logs against per-checkpoint influence sets. Per-entry constants
// fold in map bucket overhead; the ring and the pinned list, 24-byte
// entries, are counted at the slots they hold, and log entries at capacity
// (the bytes actually pinned), a Contrib being 16 bytes with alignment
// padding.
// Every term is a length or a maintained counter, so the estimate is O(1):
// snapshots take it on every publish.
func (s *Stream) RetainedBytesEstimate() int64 {
	const (
		ringEntry = 24 // one entry, counted at ring and pinned-list capacity
		logsEntry = 40 // 4B key + 8B pointer + 24B arena-held header + bucket overhead
		seenEntry = 24 // 4B key + 8B generation + bucket overhead
		coldEntry = 56 // 4B key + 32B extent + bucket overhead
		headerSz  = 24 // one userLog header still unhanded in the arena block
	)
	var b int64
	b += int64(len(s.ring)+cap(s.pinned)) * ringEntry
	b += int64(len(s.logs)) * logsEntry
	b += s.capBytes
	b += int64(len(s.logChunk)) * headerSz
	b += int64(len(s.seen)) * seenEntry
	b += int64(len(s.cold)) * coldEntry
	return b
}

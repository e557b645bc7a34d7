// Package core implements the paper's primary contribution: the Influential
// Checkpoints (IC, §4) and Sparse Influential Checkpoints (SIC, §5)
// frameworks for continuous Stream Influence Maximization over sliding
// windows.
//
// Both frameworks transform the sliding-window problem into a collection of
// append-only problems: a checkpoint created at time s runs a streaming
// submodular oracle over every action from s onward, so when the window
// eventually begins at s the checkpoint's solution is exactly an
// ε-approximate answer for that window (Theorem 2). IC keeps one checkpoint
// per window slide (⌈N/L⌉ of them); SIC prunes checkpoints whose value is
// sandwiched within a (1−β) band of a predecessor (Algorithm 2), keeping
// O(log N / β) of them while guaranteeing an ε(1−β)/2 approximation
// (Theorems 3–5).
//
// The Set-Stream Mapping (§4.2) emits an element 〈u, I_s(u)〉 when an action
// updates I_s(u), and that is what the feed does: a contributor's element
// reaches the checkpoints that start after the performer's previous
// contribution to it (stream.Delta.Prev) — for an older start the performer
// was a member already and the oracle has seen this very set. Every oracle's
// guarantee needs each version of a set offered once; none uses a second
// offer. The feed materializes each contributor's element once as a shared
// influence-set view and cuts it per checkpoint by one walk over it
// (checkpoints ascend by start, so the cuts only shorten). Checkpoints come
// and go at every slide; an oracle that can Reset itself is handed from a
// deleted checkpoint to a new one through a small free list instead of
// being grown from nothing each time.
//
// ProcessBatch is the one ingest function: it admits a slice of actions,
// feeds each checkpoint one element per distinct contributor of the batch
// whose set there the batch changed, and runs window maintenance once, after
// the last of them. The paper's per-action algorithm is a batch of one
// (Process).
//
// A Framework is single-writer: it is not safe for concurrent use.
// Concurrent serving is layered on top by internal/server, which owns each
// Framework (via sim.Tracker) from one ingest goroutine and publishes
// immutable snapshots for readers.
package core

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/oracle"
	"repro/internal/stream"
)

// Config parametrizes a Framework. The zero value is invalid; all fields
// except Beta and Sparse are mandatory.
type Config struct {
	// K is the seed-set cardinality constraint of the SIM query.
	K int
	// N is the sliding window size in actions.
	N int
	// L is the number of actions per window slide (checkpoint spacing,
	// paper §5.3). Defaults to 1 when zero.
	L int
	// Beta is SIC's pruning band in (0, 1); larger values keep fewer
	// checkpoints at a larger approximation loss. Ignored when Sparse is
	// false.
	Beta float64
	// Oracle constructs the checkpoint oracle (paper Table 2).
	Oracle oracle.Factory
	// Sparse selects SIC (true) or IC (false).
	Sparse bool
	// ByTime switches from the paper's sequence-based window to a
	// time-based one: action IDs are treated as wall-clock timestamps (with
	// gaps allowed), N and L become durations in the same unit, and a new
	// checkpoint opens once L time units passed since the previous one.
	// Window expiry is timestamp-based in both modes, so all approximation
	// guarantees carry over unchanged — the checkpoints still cover exactly
	// the suffixes of the current window.
	ByTime bool
	// Cold, when non-nil together with a positive ColdBudget, attaches a
	// cold tier to the stream index: expired-but-retained contribution logs
	// spill to immutable segment files at the window's expiry boundary
	// whenever resident log bytes exceed the budget, and fault back in on
	// demand. Results are bit-identical with or without a cold tier; only
	// memory residency and I/O change. The store is runtime environment,
	// not logical configuration — it is shared, never serialized, and must
	// outlive the framework (the owner closes it).
	Cold stream.ColdStore
	// ColdBudget is the resident hot-log byte budget that triggers spilling
	// (0 = never spill).
	ColdBudget int64
}

func (c Config) validate() error {
	switch {
	case c.K < 1:
		return errors.New("core: K must be >= 1")
	case c.N < 1:
		return errors.New("core: N must be >= 1")
	case c.L < 0 || c.L > c.N:
		return fmt.Errorf("core: L must be in [1, N], got %d", c.L)
	case c.Oracle == nil:
		return errors.New("core: Oracle factory is required")
	case c.Sparse && (c.Beta <= 0 || c.Beta >= 1):
		return fmt.Errorf("core: Beta must be in (0, 1) for SIC, got %v", c.Beta)
	}
	return nil
}

// checkpoint pairs an oracle with the time of the first action it has
// observed; it is the Λ_t[x] of the paper, covering the suffix of the window
// that begins at start.
type checkpoint struct {
	start  stream.ActionID
	oracle oracle.Oracle
}

// recycler is implemented by oracles that can return to their freshly
// constructed state while keeping the memory they grew (the sieve-style
// oracles). A Reset oracle must be indistinguishable from one the factory
// just made: same answers, same future decisions, same saved bytes.
type recycler interface {
	oracle.Oracle
	Reset()
}

// maxFreeOracles bounds the oracle free list. A slide deletes about as many
// checkpoints as it creates, so the list rarely needs to hold more than the
// one oracle waiting for the next slide; the bound keeps a burst of
// deletions from pinning its memory.
const maxFreeOracles = 2

// Framework runs either IC or SIC over a social stream. It is not safe for
// concurrent use.
type Framework struct {
	cfg Config
	st  *stream.Stream

	// cps is ordered by ascending start. Under SIC, cps[0] may be expired
	// (start before the window start): the retained Λ[x0] of Algorithm 2
	// that upper-bounds the optimum of the current window.
	cps []*checkpoint

	// free holds the Reset oracles of deleted checkpoints for the next
	// creations, at most maxFreeOracles of them.
	free []recycler

	processed   int64 // actions ingested
	lastCpStart stream.ActionID

	// Batch-feed scratch (ProcessBatch, batches of two or more): the distinct
	// contributors of the current batch in first-touch order, with the
	// per-contributor gain metadata that keeps the oracles' O(1) fast path
	// alive under batching.
	batchSeen  map[stream.UserID]int // contributor -> index into batchGains
	batchGains []batchGain

	// Cumulative counters for the experiment harness.
	cpCreated int64
	cpDeleted int64
	cpSamples int64 // sum over actions of live checkpoint count
	elemFed   int64 // oracle elements fed (the O(dN) term of §4.2)
	// Checkpoints a contributor was not fed to because its set there had not
	// changed; with elemFed, what an unconditional feed would have emitted.
	// Not saved: the payload is what it was before the counter existed.
	elemUnchanged int64
	// Scan work of the oracles already deleted; Stats adds the live ones'.
	// Not saved, like the oracle counters it sums.
	deadScans, deadScanMembers, deadSlotVisits int64
}

// New validates cfg and returns an empty framework.
func New(cfg Config) (*Framework, error) {
	if cfg.L == 0 {
		cfg.L = 1
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	f := &Framework{cfg: cfg, st: stream.New()}
	f.st.SetCold(cfg.Cold, cfg.ColdBudget)
	return f, nil
}

// MustNew is New for static configurations known to be valid.
func MustNew(cfg Config) *Framework {
	f, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return f
}

// Config returns the framework's configuration (with defaults applied).
func (f *Framework) Config() Config { return f.cfg }

// Stream exposes the underlying stream index, used by the evaluation
// harness to build the window's influence graph. Callers must not mutate it.
func (f *Framework) Stream() *stream.Stream { return f.st }

// Processed returns the number of ingested actions.
func (f *Framework) Processed() int64 { return f.processed }

// WindowStart returns the ID of the first action of the current window W_t,
// i.e. t−N+1 clamped to the first action.
func (f *Framework) WindowStart() stream.ActionID {
	ws := f.st.Last() - stream.ActionID(f.cfg.N) + 1
	if len(f.cps) > 0 && ws < f.cps[0].start {
		ws = f.cps[0].start
	}
	return ws
}

// Process is ProcessBatch for one action: Algorithm 1 (IC) or Algorithm 2
// (SIC) as the paper states it, with maintenance after every action.
func (f *Framework) Process(a stream.Action) error {
	return f.ProcessBatch([]stream.Action{a})
}

// batchGain records which performers contributor u's influence set may have
// gained during the current batch: latest is the first one seen, multi is
// set when a second distinct performer appears (disabling the O(1) fast
// path for that contributor's elements). prev is the minimum stream.Delta.Prev
// over the contributor's touches in the batch: the checkpoints that start
// after it are the ones whose set the batch changed. That is exact for a
// checkpoint opened mid-batch too — a touch that lands at or after its start
// changes its set, and the earliest such touch has prev < start, its
// previous entry being older than the checkpoint; with no such touch the
// prefix is empty and feedContributor stops there.
type batchGain struct {
	u, latest stream.UserID
	multi     bool
	prev      stream.ActionID
}

// ProcessBatch ingests actions and performs the checkpoint maintenance of
// Algorithm 1 (IC) or Algorithm 2 (SIC). It is the one function that admits,
// feeds and maintains: the stream index is updated in one IngestBatch call,
// each checkpoint oracle then receives ONE element per distinct contributor
// of the batch whose set there the batch changed (instead of one per
// contributing action), and window expiry, SIC pruning and horizon advance
// run once at the batch boundary. A batch of one is the paper's per-action
// algorithm.
//
// Semantics: checkpoint creation keeps its per-action cadence at any batch
// size, and every oracle element carries the contributor's influence set
// evaluated after the whole batch — a coarser-grained notification of the
// same monotone set growth per-action processing reports. Each checkpoint
// still observes its full suffix (a contributor's element covers all of its
// batch contributions), so the oracles' approximation guarantees are
// unchanged; only the intra-batch admission interleaving may differ from
// per-action processing. Queries are exact at batch boundaries, matching
// the L-action slide granularity the paper already guarantees results at.
//
// On a stream-order error (stream.ErrNonMonotonicID, stream.ErrBadParent)
// the actions before the offending one are processed as a shorter batch and
// the error is returned; the offender and everything behind it are dropped.
func (f *Framework) ProcessBatch(actions []stream.Action) error {
	deltas, err := f.st.IngestBatch(actions)
	if len(deltas) == 0 {
		return err
	}
	last := len(deltas) - 1

	// Checkpoint creation, per action (Algorithm 1 line 2; §5.3 for L > 1).
	// A checkpoint opened mid-batch starts at its opening action's ID, so
	// the prefix query below feeds it exactly its own suffix. cpSamples
	// counts the live checkpoints once per action: after its admission,
	// where creations are exactly timed, except for the last action, counted
	// after the maintenance below — so a batch of one samples what the paper
	// plots (Figure 6), and a longer one lags it by at most the deletions
	// its boundary holds back.
	for _, d := range deltas[:last] {
		f.admit(d.Action.ID)
		f.cpSamples += int64(len(f.cps))
	}
	f.admit(deltas[last].Action.ID)

	// Feed the batch through the Set-Stream Mapping (§4.2): a contributor u
	// emits (u, I_s(u)), evaluated after the batch, to the checkpoints whose
	// suffix set the batch changed — those that start after the performer's
	// previous contribution to u (feedContributor: one recency-sorted
	// materialization per contributor serves every checkpoint as a prefix).
	if last == 0 {
		// One action: its contributors are distinct already, and its
		// performer is the one member each fed element gained since u's
		// previous element on the same checkpoint — the O(1) seed-update
		// fast path (Latest).
		d := deltas[0]
		for i, u := range d.Contributors {
			f.feedContributor(u, d.Action.User, true, d.Prev[i])
		}
	} else {
		// Distinct contributors of the batch, in first-touch order so
		// batched runs are deterministic. Alongside each contributor, track
		// the distinct performers its influence set may have gained this
		// batch: when there is exactly one, the Latest fast path stays valid
		// (Latest only has to cover every member possibly added since the
		// contributor's previous element — Add is idempotent and the
		// gain-bound update is an upper bound, so an already-known performer
		// is harmless). A contributor that gained members from several is
		// fed without Latest and seed updates fall back to a full merge.
		if f.batchSeen == nil {
			f.batchSeen = map[stream.UserID]int{}
		}
		clear(f.batchSeen)
		f.batchGains = f.batchGains[:0]
		for _, d := range deltas {
			p := d.Action.User
			for j, u := range d.Contributors {
				if i, ok := f.batchSeen[u]; ok {
					g := &f.batchGains[i]
					if g.latest != p {
						g.multi = true
					}
					g.prev = min(g.prev, d.Prev[j])
					continue
				}
				f.batchSeen[u] = len(f.batchGains)
				f.batchGains = append(f.batchGains, batchGain{u: u, latest: p, prev: d.Prev[j]})
			}
		}
		for _, g := range f.batchGains {
			f.feedContributor(g.u, g.latest, !g.multi, g.prev)
		}
	}

	// Batch-boundary maintenance, against the window of the last action:
	// expire checkpoints that no longer cover a suffix of it, prune (SIC),
	// and release stream state older than the oldest checkpoint — under SIC
	// the retained Λ[x0] keeps the horizon slightly behind the window start.
	ws := deltas[last].Action.ID - stream.ActionID(f.cfg.N) + 1
	f.expire(ws)
	if f.cfg.Sparse {
		f.prune()
	}
	if len(f.cps) > 0 {
		f.st.Advance(min(f.cps[0].start, ws))
	}
	f.cpSamples += int64(len(f.cps))
	return err
}

// admit counts one ingested action, first opening a checkpoint when the
// action starts a slide batch (Algorithm 1 line 2; §5.3 for L > 1; in
// time-based mode a batch is L time units rather than L actions). It is the
// one place checkpoints are created: the oracle comes off the free list when
// a deleted checkpoint left one there, from the factory otherwise.
func (f *Framework) admit(id stream.ActionID) {
	var create bool
	if f.cfg.ByTime {
		create = f.processed == 0 || id >= f.lastCpStart+stream.ActionID(f.cfg.L)
	} else {
		create = f.processed%int64(f.cfg.L) == 0
	}
	if create {
		var orc oracle.Oracle
		if n := len(f.free); n > 0 {
			orc, f.free = f.free[n-1], f.free[:n-1]
		} else {
			orc = f.cfg.Oracle(f.cfg.K)
		}
		f.cps = append(f.cps, &checkpoint{start: id, oracle: orc})
		f.lastCpStart = id
		f.cpCreated++
	}
	f.processed++
}

// retire takes a deleted checkpoint's oracle out of service: its scan
// counters are banked, and if it can Reset it goes on the free list.
func (f *Framework) retire(cp *checkpoint) {
	st := cp.oracle.Stats()
	f.deadScans += st.Scans
	f.deadScanMembers += st.ScanMembers
	f.deadSlotVisits += st.SlotVisits
	if r, ok := cp.oracle.(recycler); ok && len(f.free) < maxFreeOracles {
		r.Reset()
		f.free = append(f.free, r)
	}
}

// feedContributor emits one contributor's element to the live checkpoints
// whose influence set for u changed: the per-action hot path of both
// frameworks, and the only place an oracle is fed. prev is the latest time
// before which everything u gained was already there — the performer's
// previous contribution to u (stream.Delta.Prev), the minimum over the
// touches when a batch made several. A checkpoint with start <= prev holds
// that contribution inside its suffix: I_start(u) is the set its oracle was
// last handed, and it is skipped (counted in elemUnchanged). When that is
// every checkpoint, nothing is materialized at all.
//
// For the others the influence set is materialized once (a view into the
// stream's recency log), from the oldest changed checkpoint on, and sliced
// per checkpoint — the list descends in time and the checkpoints ascend by
// start, so each cut is found by walking on from the previous one, and once
// a checkpoint's prefix is empty so is every later one's. Nothing on this
// path allocates in steady state: elements are values over a shared prefix
// view.
func (f *Framework) feedContributor(u, latest stream.UserID, latestValid bool, prev stream.ActionID) {
	first := f.firstAfter(prev)
	if first == len(f.cps) {
		f.elemUnchanged += int64(first)
		return
	}
	list := f.st.InfluenceRecency(u, f.cps[first].start)
	if prev < 0 {
		// The hot log held no entry; under a cold tier the query above may
		// have found the old one in u's extent.
		if cold := f.st.ColdPrev(); cold >= 0 {
			first = f.firstAfter(cold)
		}
	}
	f.elemUnchanged += int64(first)
	cut := len(list)
	for _, cp := range f.cps[first:] {
		for cut > 0 && list[cut-1].T < cp.start {
			cut--
		}
		if cut == 0 {
			break
		}
		f.elemFed++
		cp.oracle.Process(oracle.Element{User: u, Latest: latest, LatestValid: latestValid, Prefix: list[:cut]})
	}
}

// firstAfter returns the index of the oldest checkpoint that starts after t
// (len(f.cps) when none does). It walks down from the newest: the
// checkpoints an action changes are the few youngest ones.
func (f *Framework) firstAfter(t stream.ActionID) int {
	n := len(f.cps)
	for n > 0 && f.cps[n-1].start > t {
		n--
	}
	return n
}

// expire removes checkpoints whose start precedes the window start. IC
// deletes all of them; SIC retains the newest expired checkpoint as Λ[x0]
// (Algorithm 2 lines 21–23: Λ[x0] is deleted only once its successor also
// expires).
func (f *Framework) expire(windowStart stream.ActionID) {
	n := 0
	for n < len(f.cps) && f.cps[n].start < windowStart {
		n++
	}
	if f.cfg.Sparse && n > 0 {
		n-- // keep the newest expired checkpoint as Λ[x0]
	}
	if n > 0 {
		for _, cp := range f.cps[:n] {
			f.retire(cp)
		}
		f.cpDeleted += int64(n)
		f.cps = append(f.cps[:0], f.cps[n:]...)
	}
}

// prune is the SIC deletion rule (Algorithm 2 lines 9–20): starting from
// each surviving checkpoint x_i, delete the following checkpoints x_j while
// both Λ[x_j] and its successor stay within the (1−β) band of Λ[x_i]; the
// successor then approximates the deleted ones with ratio ε(1−β)/2
// (Lemma 2).
func (f *Framework) prune() {
	band := 1 - f.cfg.Beta
	for i := 0; i < len(f.cps); i++ {
		vi := f.cps[i].oracle.Value()
		for i+2 < len(f.cps) &&
			f.cps[i+1].oracle.Value() >= band*vi &&
			f.cps[i+2].oracle.Value() >= band*vi {
			f.retire(f.cps[i+1])
			f.cps = append(f.cps[:i+1], f.cps[i+2:]...)
			f.cpDeleted++
		}
	}
}

// answer returns the checkpoint answering the SIM query: the oldest
// checkpoint that covers at most the current window (Λ[x1]; under IC this is
// Λ[1]). During warm-up, when even the oldest checkpoint covers less than N
// actions, that oldest checkpoint is the exact choice.
func (f *Framework) answer() *checkpoint {
	ws := f.st.Last() - stream.ActionID(f.cfg.N) + 1
	for _, cp := range f.cps {
		if cp.start >= ws {
			return cp
		}
	}
	if len(f.cps) > 0 {
		return f.cps[len(f.cps)-1]
	}
	return nil
}

// Seeds returns the current SIM solution: at most K users. The returned
// slice is owned by the framework and valid until the next Process call.
func (f *Framework) Seeds() []stream.UserID {
	if cp := f.answer(); cp != nil {
		return cp.oracle.Seeds()
	}
	return nil
}

// CandidateSeeds returns the answering checkpoint's candidate pool: the
// union of every live candidate solution's users when the oracle exposes one
// (the sieve-style oracles), otherwise just Seeds(). Either way the slice is
// sorted ascending, so membership is a binary search, and must not be
// modified by the caller. A distributed merge layer ranks each partition's
// pool and merges the rankings; see internal/router.
func (f *Framework) CandidateSeeds() []stream.UserID {
	cp := f.answer()
	if cp == nil {
		return nil
	}
	if cs, ok := cp.oracle.(oracle.CandidateSource); ok {
		return cs.Candidates()
	}
	pool := slices.Clone(cp.oracle.Seeds())
	slices.Sort(pool)
	return pool
}

// Value returns the influence value f(I_t(S)) of the current solution as
// maintained by the answering checkpoint's oracle.
func (f *Framework) Value() float64 {
	if cp := f.answer(); cp != nil {
		return cp.oracle.Value()
	}
	return 0
}

// Checkpoints returns the number of live checkpoints (including SIC's
// retained Λ[x0]).
func (f *Framework) Checkpoints() int { return len(f.cps) }

// CheckpointStarts returns the start times of the live checkpoints in
// ascending order; used by tests asserting Algorithm 2's structure.
func (f *Framework) CheckpointStarts() []stream.ActionID {
	out := make([]stream.ActionID, len(f.cps))
	for i, cp := range f.cps {
		out[i] = cp.start
	}
	return out
}

// CheckpointValues returns the oracle values of the live checkpoints in
// ascending start order.
func (f *Framework) CheckpointValues() []float64 {
	out := make([]float64, len(f.cps))
	for i, cp := range f.cps {
		out[i] = cp.oracle.Value()
	}
	return out
}

// FrameworkStats aggregates maintenance counters for the harness.
type FrameworkStats struct {
	Processed      int64
	Created        int64
	Deleted        int64
	AvgCheckpoints float64
	// ElementsFed counts the set-stream elements the oracles received: one
	// per (contributor, checkpoint) whose influence set the action or batch
	// changed. ElementsUnchanged counts the pairs skipped because it had
	// not — the contributor's set for that checkpoint was non-empty and
	// already held the performer — so ElementsUnchanged ÷ (ElementsFed +
	// ElementsUnchanged) is the share of re-offers on this stream. Unlike
	// ElementsFed, and like the scan counters below, ElementsUnchanged is
	// not saved: it restarts at zero on a restored framework.
	ElementsFed       int64
	ElementsUnchanged int64
	// Scans and ScanMembers sum oracle.Stats' counters of the same names
	// over every checkpoint oracle this framework has run, deleted ones
	// included: how many fed elements had their influence set scanned, and
	// how many members those scans probed. Like the oracle counters they
	// restart at zero on a restored framework.
	Scans       int64
	ScanMembers int64
	// SlotVisits sums oracle.Stats.SlotVisits the same way: the instance
	// slots the sieve grids' threshold sweeps visited. Like Scans it is not
	// saved and not a tracker counter.
	SlotVisits int64
}

// Stats returns cumulative maintenance counters.
func (f *Framework) Stats() FrameworkStats {
	s := FrameworkStats{
		Processed:         f.processed,
		Created:           f.cpCreated,
		Deleted:           f.cpDeleted,
		ElementsFed:       f.elemFed,
		ElementsUnchanged: f.elemUnchanged,
		Scans:             f.deadScans,
		ScanMembers:       f.deadScanMembers,
		SlotVisits:        f.deadSlotVisits,
	}
	for _, cp := range f.cps {
		st := cp.oracle.Stats()
		s.Scans += st.Scans
		s.ScanMembers += st.ScanMembers
		s.SlotVisits += st.SlotVisits
	}
	if f.processed > 0 {
		s.AvgCheckpoints = float64(f.cpSamples) / float64(f.processed)
	}
	return s
}

// Package oracle implements the append-only streaming submodular
// optimization (SSO) algorithms that serve as checkpoint oracles in the IC
// and SIC frameworks — the four candidates of the paper's Table 2:
//
//	SieveStreaming   (Badanidiyuru et al., KDD'14)  1/2−β   general
//	ThresholdStream  (Kumar et al., TOPC'15)        1/2−β   general
//	BlogWatch        (Saha & Getoor, SDM'09)        1/4     coverage, O(k)
//	MkC              (Ausiello et al., DAM'12)      1/4     coverage, O(k log k)
//
// Elements arrive through the Set-Stream Mapping (paper §4.2): whenever an
// action updates user u's influence set, the checkpoint receives the pair
// (u, I_s(u)) as a fresh set-stream element. The candidate solution is
// adapted to store users rather than sets, so re-seeing a user already in
// the solution merges coverage instead of consuming a seed slot — exactly
// the adaptation Theorem 2 analyses.
package oracle

import (
	"repro/internal/stream"
	"repro/internal/submod"
)

// Element is one mapped set-stream element: user User together with its
// current influence set for the oracle's suffix, materialized as Prefix.
// It is a plain value — passing one to an oracle allocates nothing.
//
// Prefix is the influence set as (user, last-contribution-time) pairs in
// descending time order, exactly what stream.InfluenceRecency returns: the
// checkpoint frameworks materialize one recency list per contributor and
// slice it per checkpoint, so the same backing array serves every element
// of the fan-out. Oracles read only the .V members and must not retain or
// mutate the slice beyond the Process call — it aliases stream state that
// the next Ingest may rewrite. Duplicate users never occur
// (the recency list holds each influenced user once).
//
// Latest, when LatestValid, is the one member the set gained since this
// user's previous element on the same oracle (the current action's
// performer). The caller guarantees it: core.Framework delivers an element
// to a checkpoint only when the action (or batch) changed the user's
// influence set for that checkpoint's suffix — the performer's previous
// contribution, stream.Delta.Prev, is older than the checkpoint — so every
// version of a set is offered once, no set is offered twice, and a
// LatestValid element really gained Latest. This lets oracles update an
// already-admitted seed's coverage in O(1) instead of re-merging the whole
// set — and admission leans on it just as hard: the sieve-style oracles
// reject a re-offered candidate from a cached gain bound that they grow by
// Latest's weight alone (grid.feed), so an element that claims LatestValid
// while its set gained some other member, or lost one, makes them reject
// candidates they should have admitted. A caller that cannot name the one
// new member leaves LatestValid false (as core.ProcessBatch does for a
// contributor several performers reached in one batch); the oracles then
// rescan.
type Element struct {
	User        stream.UserID
	Latest      stream.UserID
	LatestValid bool
	Prefix      []stream.Contrib
}

// SliceElement builds an Element from a materialized influence set (used by
// tests and the offline reference implementations).
func SliceElement(u stream.UserID, set []stream.UserID) Element {
	prefix := make([]stream.Contrib, len(set))
	for i, v := range set {
		prefix[i] = stream.Contrib{V: v}
	}
	return Element{User: u, Prefix: prefix}
}

// Stats exposes internal counters of an oracle, reported by the experiment
// harness (e.g. the number of live SieveStreaming instances behind Fig 7's
// throughput trend).
type Stats struct {
	// Instances is the number of live candidate solutions (1 for swap
	// oracles, O(log k / β) for sieve-style oracles).
	Instances int
	// Elements is the number of set-stream elements processed.
	Elements int64
	// Scans is the number of those elements whose influence set had to be
	// walked against the solutions' coverage because no cheaper test decided
	// every candidate solution, and ScanMembers the members those walks
	// probed: the work behind the O(d·g·N) update cost, and what the gain
	// bounds exist to avoid. Counted since construction, Reset or restore —
	// unlike Elements they are not part of the saved state — and zero for
	// the oracles that keep no coverage to scan.
	Scans       int64
	ScanMembers int64
	// SlotVisits is the number of instance slots the threshold sweep
	// visited: for each element, the live, non-full slots that do not yet
	// hold its user as a seed — the g of O(d·g·N), counted where it is
	// paid. Counted and reset like Scans; zero for the swap oracles.
	SlotVisits int64
}

// Oracle is an append-only streaming submodular maximizer under a
// cardinality constraint: the checkpoint oracle abstraction of paper §4.2.
// Implementations must be monotone: Value never decreases as elements are
// appended. This monotonicity is what SIC's analysis (Lemma 2) relies on.
type Oracle interface {
	// Process observes one set-stream element.
	Process(e Element)
	// Value returns the objective value f of the current candidate solution.
	Value() float64
	// Seeds returns the current candidate solution of at most k users. The
	// returned slice must not be modified by the caller.
	Seeds() []stream.UserID
	// Stats returns internal counters.
	Stats() Stats
}

// CandidateSource is implemented by oracles that can report a candidate
// superset of Seeds(): every user currently held by any live candidate
// solution (plus the monotone best-ever answer). A distributed merge layer
// (internal/router) unions the candidate sets of independent partitions and
// re-scores them with one exact greedy pass — the GreeDi-style two-round
// scheme — so the richer the per-partition candidate pool, the closer the
// merged answer gets to a centralized run. Oracles with a single candidate
// solution simply don't implement this; callers fall back to Seeds().
type CandidateSource interface {
	// Candidates returns the deduplicated union of all live candidate
	// solutions' users, sorted ascending. The slice must not be modified by
	// the caller.
	Candidates() []stream.UserID
}

// Factory creates a fresh oracle for a cardinality constraint k. The IC and
// SIC frameworks call it once per checkpoint.
type Factory func(k int) Oracle

// Kind names one of the implemented oracle algorithms.
type Kind int

// The oracle algorithms of Table 2.
const (
	SieveStreaming Kind = iota
	ThresholdStream
	BlogWatch
	MkC
)

// String returns the paper's name for the oracle.
func (k Kind) String() string {
	switch k {
	case SieveStreaming:
		return "SieveStreaming"
	case ThresholdStream:
		return "ThresholdStream"
	case BlogWatch:
		return "BlogWatch"
	case MkC:
		return "MkC"
	default:
		return "unknown"
	}
}

// NewFactory returns a Factory for the given algorithm. beta is the
// approximation/efficiency knob of the sieve-style oracles (ignored by the
// swap oracles), w the influence weights (nil = cardinality). Oracles made
// by one factory share nothing mutable (w must be safe for concurrent
// reads), so a caller may Process distinct oracles concurrently.
func NewFactory(kind Kind, beta float64, w submod.Weights) Factory {
	switch kind {
	case SieveStreaming:
		return func(k int) Oracle { return NewSieve(k, beta, w) }
	case ThresholdStream:
		return func(k int) Oracle { return NewThreshold(k, beta, w) }
	case BlogWatch:
		return func(k int) Oracle { return NewSwap(k, w, false) }
	case MkC:
		return func(k int) Oracle { return NewSwap(k, w, true) }
	default:
		panic("oracle: unknown kind")
	}
}

// Package sim is the public API of the stream influence maximization
// library, a reproduction of "Real-Time Influence Maximization on Dynamic
// Social Streams" (Wang, Fan, Li, Tan — VLDB 2017).
//
// A Tracker answers the continuous SIM query: over a sliding window of the
// most recent N social actions, maintain up to K users whose combined
// influence sets maximize a monotone submodular objective. Internally it
// runs the paper's Sparse Influential Checkpoints framework (or the denser
// IC variant) on top of a streaming submodular oracle.
//
// Quick start:
//
//	tr, err := sim.New(sim.Config{K: 10, WindowSize: 100_000})
//	if err != nil { ... }
//	for a := range actions {
//	    if err := tr.Process(a); err != nil { ... }
//	    seeds := tr.Seeds() // current influential users
//	}
//
// The ingestion hot path is a per-checkpoint feed with a zero-allocation
// element path: influence sets reach the oracles as shared slice views
// rather than closures. There is one such path, ProcessAll → the
// framework's ProcessBatch → the stream index's IngestBatch, and one Config
// option says how it is cut: BatchSize (default 1, the paper's per-action
// algorithm) groups actions within one ProcessAll call so the stream index,
// oracle feeding and window maintenance amortize across a batch; Process is
// ProcessAll for one action. Nothing is held over between calls: when
// ProcessAll returns, everything it accepted is applied.
//
// A Tracker is single-writer: only one goroutine may call Process and the
// query methods. For concurrent readers, the owner calls Snapshot — an
// immutable, JSON-marshalable copy of the current answer that shares no
// memory with the tracker — and publishes it; that is exactly how the
// long-lived serving layer (internal/server, cmd/simserve) serves queries
// while the stream keeps arriving.
//
// Tracker state is persistable: SaveTo writes a versioned SIM2 snapshot of
// everything the tracker owns (stream index, every checkpoint oracle's
// state, counters) and Load reconstructs a tracker that continues the
// stream with bit-identical results — the foundation of the serving
// layer's write-ahead-log + snapshot durability (simserve -data-dir).
package sim

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/dataio"
	"repro/internal/fault"
	"repro/internal/oracle"
	"repro/internal/stream"
	"repro/internal/submod"
)

// Re-exported stream types: the social-action vocabulary of the library.
type (
	// Action is one social action: User acts at time ID in response to the
	// earlier action Parent (NoParent for original posts).
	Action = stream.Action
	// UserID identifies a user.
	UserID = stream.UserID
	// ActionID is an action's timestamp / sequence number.
	ActionID = stream.ActionID
	// Weights assigns per-user coverage values; nil means the cardinality
	// objective |I(S)| of the paper's main text.
	Weights = submod.Weights
)

// NoParent marks a root action.
const NoParent = stream.NoParent

// Stream-order errors returned by Process and ProcessAll (wrapped; test
// with errors.Is).
var (
	// ErrNonMonotonicID reports an action whose ID is not strictly greater
	// than every previously accepted ID.
	ErrNonMonotonicID = stream.ErrNonMonotonicID
	// ErrBadParent reports an action referencing itself or a future action
	// as its parent.
	ErrBadParent = stream.ErrBadParent
)

// Cardinality is the unweighted influence objective f(I(S)) = |I(S)|.
type Cardinality = submod.Cardinality

// WeightTable is a map-backed Weights with a default, e.g. for the
// conformity-aware objective of the paper's Appendix A.
type WeightTable = submod.Table

// Framework selects the checkpoint maintenance strategy.
type Framework int

const (
	// SIC is the Sparse Influential Checkpoints framework (paper §5):
	// O(log N / β) checkpoints, ε(1−β)/2 approximation. The default.
	SIC Framework = iota
	// IC is the dense Influential Checkpoints framework (paper §4):
	// ⌈N/L⌉ checkpoints, full oracle ratio ε, higher update cost.
	IC
)

// String returns the paper's name for the framework.
func (f Framework) String() string {
	switch f {
	case SIC:
		return "SIC"
	case IC:
		return "IC"
	default:
		return fmt.Sprintf("Framework(%d)", int(f))
	}
}

// ParseFramework parses a framework name, case-insensitively: "sic" or "ic".
func ParseFramework(s string) (Framework, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "sic":
		return SIC, nil
	case "ic":
		return IC, nil
	default:
		return 0, fmt.Errorf("sim: unknown framework %q (want sic or ic)", s)
	}
}

// MarshalText encodes the framework as its name, making Framework fields
// JSON-marshalable by name rather than by ordinal.
func (f Framework) MarshalText() ([]byte, error) {
	if f != SIC && f != IC {
		return nil, fmt.Errorf("sim: unknown framework %d", int(f))
	}
	return []byte(f.String()), nil
}

// UnmarshalText decodes a framework name via ParseFramework.
func (f *Framework) UnmarshalText(b []byte) error {
	v, err := ParseFramework(string(b))
	if err != nil {
		return err
	}
	*f = v
	return nil
}

// Oracle selects the streaming submodular algorithm run inside every
// checkpoint (paper Table 2).
type Oracle int

const (
	// SieveStreaming (Badanidiyuru et al.): (1/2−β)-approximate, the
	// oracle used throughout the paper's evaluation. The default.
	SieveStreaming Oracle = iota
	// ThresholdStream (Kumar et al.): (1/2−β)-approximate.
	ThresholdStream
	// BlogWatch (Saha & Getoor): 1/4-approximate swap oracle, O(k) updates.
	BlogWatch
	// MkC (Ausiello et al.): 1/4-approximate swap oracle considering every
	// possible swap.
	MkC
)

// String returns the oracle's published name.
func (o Oracle) String() string { return o.kind().String() }

// ParseOracle parses an oracle name, case-insensitively. Both the published
// names ("SieveStreaming", "ThresholdStream", "BlogWatch", "MkC") and the
// short forms used by the command-line tools ("sieve", "threshold",
// "blogwatch", "mkc") are accepted.
func ParseOracle(s string) (Oracle, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "sieve", "sievestreaming":
		return SieveStreaming, nil
	case "threshold", "thresholdstream":
		return ThresholdStream, nil
	case "blogwatch":
		return BlogWatch, nil
	case "mkc":
		return MkC, nil
	default:
		return 0, fmt.Errorf("sim: unknown oracle %q (want sieve, threshold, blogwatch or mkc)", s)
	}
}

// MarshalText encodes the oracle as its published name, making Oracle fields
// JSON-marshalable by name rather than by ordinal.
func (o Oracle) MarshalText() ([]byte, error) {
	if o < SieveStreaming || o > MkC {
		return nil, fmt.Errorf("sim: unknown oracle %d", int(o))
	}
	return []byte(o.String()), nil
}

// UnmarshalText decodes an oracle name via ParseOracle.
func (o *Oracle) UnmarshalText(b []byte) error {
	v, err := ParseOracle(string(b))
	if err != nil {
		return err
	}
	*o = v
	return nil
}

func (o Oracle) kind() oracle.Kind {
	switch o {
	case SieveStreaming:
		return oracle.SieveStreaming
	case ThresholdStream:
		return oracle.ThresholdStream
	case BlogWatch:
		return oracle.BlogWatch
	case MkC:
		return oracle.MkC
	default:
		panic(fmt.Sprintf("sim: unknown oracle %d", int(o)))
	}
}

// Config configures a Tracker. K and WindowSize are mandatory; everything
// else has sensible defaults.
type Config struct {
	// K is the maximum number of seed users to maintain.
	K int
	// WindowSize is N, the number of most recent actions considered.
	WindowSize int
	// Slide is L, the number of actions per window slide; results are
	// guaranteed at slide boundaries. Defaults to 1.
	Slide int
	// Beta trades quality for speed in both SIC's checkpoint pruning and
	// the sieve-style oracles' threshold grids. Defaults to 0.1.
	Beta float64
	// Framework selects SIC (default) or IC.
	Framework Framework
	// Oracle selects the checkpoint oracle. Defaults to SieveStreaming.
	Oracle Oracle
	// Weights is the influence objective; nil means cardinality.
	Weights Weights
	// Filter, when non-nil, restricts the query to the sub-stream of
	// actions it accepts — the topic-aware / location-aware adaptation of
	// the paper's Appendix A. Rejected actions are ignored entirely and do
	// not occupy window slots.
	Filter func(Action) bool
	// TimeBased switches from the paper's sequence-based window to a
	// time-based one: action IDs are interpreted as timestamps (gaps
	// allowed) and WindowSize / Slide become durations in the same unit.
	// An extension beyond the paper; the approximation guarantees carry
	// over because expiry is timestamp-driven either way.
	TimeBased bool
	// Deprecated: ignored. The parallel checkpoint feed it selected never
	// measured faster than the serial one and was removed; results were
	// bit-identical at every width, so ignoring it changes no answer.
	Parallelism int
	// BatchSize groups actions within one ProcessAll call: the slice is cut
	// into batches of BatchSize accepted actions (the last one shorter) and
	// each is ingested at once, feeding each checkpoint one element per
	// distinct contributor of the batch whose set there it changed, instead
	// of one per contributing action, and running window maintenance once
	// per batch. Process is a batch of one whatever the value, and 1 (or 0,
	// the zero value) makes every batch of ProcessAll one too. With larger
	// batches the oracles see the same monotone influence-set growth at
	// coarser granularity, so approximation guarantees hold but seed sets
	// may differ from the serial run within the guarantee band. Answers
	// depend on where the calls cut the stream: hand ProcessAll what arrived
	// between two slide boundaries.
	BatchSize int
	// ExpectedUsers is validated (it must not be negative) and otherwise
	// ignored: the stream index's per-user maps grow with the users the
	// window holds, which on a long stream is far fewer than the stream
	// has. The field stays for the benchmark harness, which sets it; the
	// serving layer's spec field of the same name pre-sizes name interning.
	ExpectedUsers int
	// SpillDir, when non-empty, attaches a cold tier to the stream index:
	// whenever the resident contribution-log bytes exceed
	// MemoryBudgetBytes, the longest-idle users' logs are spilled to
	// immutable segment files under this directory at the window's expiry
	// boundary. A spilled log stays cold until it expires: reads go
	// through to the segment without moving it back into RAM. Results are
	// bit-identical with or without spilling; only memory residency and I/O
	// change. The directory is created if missing and must be private to
	// this tracker.
	// Trackers with a SpillDir own an open segment store; release it with
	// Close.
	SpillDir string
	// MemoryBudgetBytes is the resident hot-log byte budget that triggers
	// spilling. 0 (the default) never spills — the tier stays attached for
	// recovery of snapshots that reference cold segments, but no new
	// segments are written. Setting a budget without a SpillDir is an
	// error. This is a runtime knob: it may differ freely between a saving
	// and a restoring tracker.
	MemoryBudgetBytes int64
	// SpillFS routes the cold tier's filesystem operations, defaulting to
	// the real filesystem. The serving layer passes its fault-injectable
	// FS here so chaos tests cover the spill path.
	SpillFS fault.FS
}

// Tracker continuously answers one SIM query. It is not safe for concurrent
// use.
type Tracker struct {
	fw       *core.Framework
	filter   func(Action) bool
	orc      Oracle
	store    *dataio.SegmentStore // cold tier; nil without Config.SpillDir
	weighted bool                 // non-nil Weights at construction; echoed into snapshots

	batchSize int
	chunk     []Action // ProcessAll's batch scratch; empty between calls

	view poolView // the candidate pool as Snapshot last published it
}

// New validates cfg and returns a ready Tracker. If cfg.SpillDir is set the
// tracker owns an open segment store; release it with Close when the
// tracker is no longer needed.
func New(cfg Config) (*Tracker, error) {
	if cfg.Beta == 0 {
		cfg.Beta = 0.1
	}
	if cfg.Beta < 0 || cfg.Beta >= 1 {
		return nil, fmt.Errorf("sim: Beta must be in (0, 1), got %v", cfg.Beta)
	}
	if cfg.Oracle < SieveStreaming || cfg.Oracle > MkC {
		return nil, fmt.Errorf("sim: unknown oracle %d", int(cfg.Oracle))
	}
	if cfg.BatchSize < 0 {
		return nil, fmt.Errorf("sim: BatchSize must be >= 0, got %d", cfg.BatchSize)
	}
	if cfg.ExpectedUsers < 0 {
		return nil, fmt.Errorf("sim: ExpectedUsers must be >= 0, got %d", cfg.ExpectedUsers)
	}
	if cfg.MemoryBudgetBytes < 0 {
		return nil, fmt.Errorf("sim: MemoryBudgetBytes must be >= 0, got %d", cfg.MemoryBudgetBytes)
	}
	if cfg.MemoryBudgetBytes > 0 && cfg.SpillDir == "" {
		return nil, fmt.Errorf("sim: MemoryBudgetBytes requires a SpillDir")
	}
	var store *dataio.SegmentStore
	var cold stream.ColdStore
	if cfg.SpillDir != "" {
		fs := cfg.SpillFS
		if fs == nil {
			fs = fault.OS()
		}
		st, err := dataio.OpenSegmentStore(fs, cfg.SpillDir)
		if err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		store, cold = st, st
	}
	fw, err := core.New(core.Config{
		K:          cfg.K,
		N:          cfg.WindowSize,
		L:          cfg.Slide,
		Beta:       cfg.Beta,
		Oracle:     oracle.NewFactory(cfg.Oracle.kind(), cfg.Beta, cfg.Weights),
		Sparse:     cfg.Framework == SIC,
		ByTime:     cfg.TimeBased,
		Cold:       cold,
		ColdBudget: cfg.MemoryBudgetBytes,
	})
	if err != nil {
		if store != nil {
			store.Close()
		}
		return nil, err
	}
	bs := cfg.BatchSize
	if bs == 0 {
		bs = 1
	}
	return &Tracker{
		fw: fw, filter: cfg.Filter, orc: cfg.Oracle, store: store,
		weighted: cfg.Weights != nil, batchSize: bs,
	}, nil
}

// Process is ProcessAll for one action, per-action at any BatchSize. Actions
// must arrive with strictly increasing IDs; an action referencing itself or a
// future action as parent is rejected. Filtered-out actions are silently
// skipped.
func (t *Tracker) Process(a Action) error {
	return t.ProcessAll([]Action{a})
}

// ProcessAll ingests a slice of actions and returns with all of it applied:
// it drops what the Filter rejects, cuts the rest into ingestion batches of
// BatchSize actions, the last one shorter, and hands each to the framework.
// It stops at the first stream-order error, with everything before the
// offending action applied — the batch that action would have joined is
// ingested short.
func (t *Tracker) ProcessAll(actions []Action) error {
	chunk := t.chunk[:0]
	for _, a := range actions {
		if t.filter != nil && !t.filter(a) {
			continue
		}
		chunk = append(chunk, a)
		if len(chunk) == t.batchSize {
			if err := t.processBatch(chunk); err != nil {
				return err
			}
			chunk = chunk[:0]
		}
	}
	t.chunk = chunk[:0]
	return t.processBatch(chunk)
}

// processBatch hands one ingestion batch to the framework, naming the action
// a stream-order error stopped at: the first one not applied.
func (t *Tracker) processBatch(batch []Action) error {
	before := t.fw.Processed()
	if err := t.fw.ProcessBatch(batch); err != nil {
		return fmt.Errorf("action %v: %w", batch[t.fw.Processed()-before], err)
	}
	return nil
}

// Close releases the cold tier's segment store (a no-op without a
// SpillDir). The tracker remains queryable after Close as long as nothing
// needs a cold read; it is safe to omit Close for process-lifetime trackers
// on a default configuration.
func (t *Tracker) Close() error {
	if t.store == nil {
		return nil
	}
	return t.store.Close()
}

// GC deletes cold segment files that no live extent references. Call it
// only when no snapshot you still intend to Load references those segments
// — for SaveTo users that means right after writing (and fsyncing) a new
// snapshot, which re-manifests exactly the live extents. The serving layer
// does this automatically after each published snapshot. Without a
// SpillDir it is a no-op.
func (t *Tracker) GC() (removed int, err error) {
	if t.store == nil {
		return 0, nil
	}
	return t.store.GC()
}

// Seeds returns the current solution: at most K users who (approximately)
// maximize the influence objective over the current window. The slice is
// owned by the Tracker and valid until the next Process call.
func (t *Tracker) Seeds() []UserID { return t.fw.Seeds() }

// Value returns the influence objective of the current solution as
// maintained by the answering checkpoint.
func (t *Tracker) Value() float64 { return t.fw.Value() }

// Candidates returns the answering checkpoint's candidate seed pool: a
// superset of Seeds() for the sieve-style oracles (union of all live
// candidate solutions), Seeds() itself for the swap oracles. A scatter-
// gather router unions these pools across shards and re-scores the merged
// pool with one exact greedy pass. The slice is freshly allocated and owned
// by the caller.
func (t *Tracker) Candidates() []UserID { return slices.Clone(t.fw.CandidateSeeds()) }

// InfluenceSet returns the users currently influenced by u within the
// window (Definition 1 of the paper).
func (t *Tracker) InfluenceSet(u UserID) []UserID {
	return t.fw.Stream().InfluenceSet(u, t.fw.WindowStart())
}

// WindowStart returns the ID of the first action of the current window.
func (t *Tracker) WindowStart() ActionID { return t.fw.WindowStart() }

// Processed returns the number of accepted (unfiltered) actions.
func (t *Tracker) Processed() int64 { return t.fw.Processed() }

// LastID returns the ID of the newest accepted action, or -1 when nothing
// has been accepted yet. The serving layer's crash recovery uses it to skip
// write-ahead-log entries already covered by a restored snapshot.
func (t *Tracker) LastID() ActionID { return t.fw.Stream().Last() }

// Stats summarizes the tracker's internal state. It marshals to JSON with
// the frameworks and oracles spelled by name, so it can be served verbatim
// by monitoring endpoints (see internal/server).
type Stats struct {
	// Framework / Oracle echo the configuration.
	Framework Framework `json:"framework"`
	Oracle    Oracle    `json:"oracle"`
	// Processed is the number of accepted actions.
	Processed int64 `json:"processed"`
	// Checkpoints is the number of live checkpoints.
	Checkpoints int `json:"checkpoints"`
	// AvgCheckpoints is the average number of live checkpoints per action,
	// the quantity plotted in the paper's Figure 6.
	AvgCheckpoints float64 `json:"avg_checkpoints"`
	// ElementsFed counts oracle updates (the O(d·N) term of §4.2): one per
	// contributor of an action or batch and checkpoint whose influence set
	// for that contributor it changed. A checkpoint the performer already
	// counted for is not fed again (Snapshot.ElementsUnchanged counts those).
	ElementsFed int64 `json:"elements_fed"`
}

// Stats returns a snapshot of maintenance counters.
func (t *Tracker) Stats() Stats {
	fs := t.fw.Stats()
	fwk := IC
	if t.fw.Config().Sparse {
		fwk = SIC
	}
	return Stats{
		Framework:      fwk,
		Oracle:         t.orc,
		Processed:      fs.Processed,
		Checkpoints:    t.fw.Checkpoints(),
		AvgCheckpoints: fs.AvgCheckpoints,
		ElementsFed:    fs.ElementsFed,
	}
}

// CheckpointStarts returns the start IDs of the live checkpoints in
// ascending order (under SIC the first entry may precede the window start:
// the retained Λ[x0] of Algorithm 2). The slice is freshly allocated.
func (t *Tracker) CheckpointStarts() []ActionID { return t.fw.CheckpointStarts() }

// CheckpointValues returns the oracle values of the live checkpoints in
// ascending start order, parallel to CheckpointStarts. The slice is freshly
// allocated.
func (t *Tracker) CheckpointValues() []float64 { return t.fw.CheckpointValues() }

// SeedInfluence is one user's influence set as captured by a Snapshot — a
// seed's (Snapshot.SeedInfluence) or a pool candidate's
// (Snapshot.Candidates): the users it currently influences within the window
// (Definition 1), in the stream index's recency order. It is the row source
// of the query layer's "influence" scan (package query) and of the serving
// layer's /candidates and /influence, which must run entirely off the
// immutable snapshot so reads never touch the ingest path.
type SeedInfluence struct {
	// User is the seed or candidate.
	User UserID `json:"user"`
	// Influenced is I(User) for the current window; never nil.
	Influenced []UserID `json:"influenced"`
}

// Snapshot is an immutable, JSON-marshalable view of a Tracker's current
// answer and maintenance counters. Nothing a Snapshot holds is ever written
// again, by the Tracker or anyone else, so it may be published to — and read
// by — any number of goroutines while the owning goroutine keeps ingesting.
// This is the read path of the serving layer (internal/server): the
// single-writer ingest loop calls Tracker.Snapshot after each applied batch
// and read handlers only ever touch the published Snapshot.
//
// Consecutive snapshots of one Tracker share memory with each other, never
// with the live index: the Influenced slice of a Candidates entry whose set
// did not change between two publishes is the same slice in both (as is the
// whole Candidates slice when no entry changed), and each SeedInfluence
// entry aliases the Candidates entry of the same user. That is safe because
// those slices are written once, when they are copied out of the index, and
// a changed set is published as a fresh copy instead of an edit; it is what
// makes a publish cost what changed rather than the size of the pool.
// Holders must treat every slice as read-only.
type Snapshot struct {
	// Framework / Oracle echo the configuration.
	Framework Framework `json:"framework"`
	Oracle    Oracle    `json:"oracle"`
	// Processed is the number of accepted actions.
	Processed int64 `json:"processed"`
	// WindowStart is the ID of the first action of the current window.
	WindowStart ActionID `json:"window_start"`
	// Seeds is the current solution: at most K influential users.
	Seeds []UserID `json:"seeds"`
	// Value is the influence objective of Seeds as maintained by the
	// answering checkpoint.
	Value float64 `json:"value"`
	// Checkpoints is the number of live checkpoints; CheckpointStarts and
	// CheckpointValues describe them in ascending start order.
	Checkpoints      int        `json:"checkpoints"`
	CheckpointStarts []ActionID `json:"checkpoint_starts"`
	CheckpointValues []float64  `json:"checkpoint_values"`
	// SeedInfluence holds, in Seeds order, each seed's influence set within
	// the current window — the per-user rows the query layer's scans pull
	// from without ever touching the live tracker. Seeds are pool members,
	// so each entry is a view of the same user's Candidates entry.
	SeedInfluence []SeedInfluence `json:"seed_influence"`
	// Candidates is the answering checkpoint's candidate pool (what
	// Tracker.Candidates returns: a superset of Seeds), ascending by user so
	// a lookup is a binary search (Snapshot.Influence), each with its
	// influence set at WindowStart. It is what lets the serving layer
	// answer /candidates — the shard half of a cluster's merged /seeds — and
	// /influence for any pool member without going to the ingest loop.
	Candidates []SeedInfluence `json:"candidates"`
	// AvgCheckpoints / ElementsFed / CheckpointsCreated /
	// CheckpointsDeleted are the cumulative maintenance counters of Stats
	// and the experiment harness. ElementsFed counts the elements whose
	// influence set changed — the only ones a checkpoint receives.
	AvgCheckpoints     float64 `json:"avg_checkpoints"`
	ElementsFed        int64   `json:"elements_fed"`
	CheckpointsCreated int64   `json:"checkpoints_created"`
	CheckpointsDeleted int64   `json:"checkpoints_deleted"`
	// Counters are the operational counters, last so that the snapshot's
	// JSON ends with them.
	Counters
}

// Counters are a tracker's operational counters: the oracle-feed work
// behind Snapshot.ElementsFed, how Snapshot got its candidate pool, and the
// tiered window state. None is saved: after Load the cumulative ones count
// from zero and the tier gauges describe the loaded state. A field's metric
// tag names the per-tracker series simserve's /metrics exports it as, after
// the "simserve_" prefix; an untagged field is not exported there.
type Counters struct {
	// ElementsUnchanged counts the (contributor, checkpoint) pairs an action
	// or batch touched without changing the set — the performer's previous
	// contribution already lay inside the checkpoint's suffix — and which
	// were therefore not fed: ElementsUnchanged ÷ (ElementsFed +
	// ElementsUnchanged) is the share of duplicate offers on this stream.
	ElementsUnchanged int64 `json:"elements_unchanged" metric:"elements_unchanged_total"`
	// Scans counts the fed elements whose influence set a sieve-style
	// oracle had to walk because its cached thresholds and gain bounds could
	// not decide every candidate solution, and ScanMembers the members those
	// walks probed — the oracle-feed work behind ElementsFed. Always zero
	// for the swap oracles, which keep no coverage to scan.
	Scans       int64 `json:"scans" metric:"scans_total"`
	ScanMembers int64 `json:"scan_members" metric:"scan_members_total"`
	// ViewRebuilds / ViewReuses count how this tracker's Snapshot calls got
	// Candidates: merged into a new slice because the pool's membership
	// changed (also the first publish, and one after too many logs changed
	// to track, which re-reads every entry), or carried over from the
	// previous snapshot with only the changed entries re-read —
	// ViewRefreshed counts those. ViewReuses ÷ (ViewRebuilds + ViewReuses)
	// is the view's hit rate and ViewRefreshed ÷ ViewReuses what a hit still
	// costs.
	ViewRebuilds  int64 `json:"view_rebuilds" metric:"view_rebuilds_total"`
	ViewReuses    int64 `json:"view_reuses" metric:"view_reuses_total"`
	ViewRefreshed int64 `json:"view_refreshed" metric:"view_refreshed_total"`
	// Tiered window state (memory accounting). ResidentBytes estimates the
	// stream index's total resident footprint; HotLogBytes and ColdLogBytes
	// split the contribution-log entries into the in-memory and the
	// spilled-to-segment share. ColdUsers / ColdSegments describe the cold
	// tier's current extent ("how much of the window lives on disk");
	// Spills counts spill passes and ColdFaults counts cold-segment reads
	// (queries merging spilled entries into an answer — reads never move a
	// log back to RAM) since the tracker started — the observability
	// surface of simserve's memory-budget mode. All zero on trackers
	// without a SpillDir.
	ResidentBytes int64 `json:"resident_bytes" metric:"resident_bytes"`
	HotLogBytes   int64 `json:"hot_log_bytes" metric:"hot_log_bytes"`
	ColdLogBytes  int64 `json:"cold_log_bytes" metric:"cold_log_bytes"`
	ColdUsers     int   `json:"cold_users"`
	ColdSegments  int   `json:"cold_segments" metric:"cold_segments"`
	Spills        int64 `json:"spills" metric:"spills_total"`
	ColdFaults    int64 `json:"cold_faults" metric:"cold_faults_total"`
}

// Stats returns the snapshot's counters as a Stats value. Defined here, next
// to both types, so a field added to Stats is populated in one place.
func (s *Snapshot) Stats() Stats {
	return Stats{
		Framework:      s.Framework,
		Oracle:         s.Oracle,
		Processed:      s.Processed,
		Checkpoints:    s.Checkpoints,
		AvgCheckpoints: s.AvgCheckpoints,
		ElementsFed:    s.ElementsFed,
	}
}

// Influence returns the influence set the snapshot holds for u — u is a
// member of the candidate pool, seeds included — or ok=false when it holds
// none. The slice is the snapshot's own: read-only.
func (s *Snapshot) Influence(u UserID) (set []UserID, ok bool) {
	i, ok := poolIndex(s.Candidates, u)
	if !ok {
		return nil, false
	}
	return s.Candidates[i].Influenced, true
}

// poolIndex finds u in a candidate pool, which ascends by user.
func poolIndex(pool []SeedInfluence, u UserID) (int, bool) {
	return slices.BinarySearchFunc(pool, u, func(c SeedInfluence, u UserID) int {
		return cmp.Compare(c.User, u)
	})
}

// poolView is the candidate pool as the last Snapshot published it, kept so
// that the next one re-reads only what moved. The pool slice and the sets in
// it are shared with published snapshots and therefore never written: a
// refresh replaces entries in a copy of the slice. pool is nil until the
// first publish.
type poolView struct {
	pool []SeedInfluence
	// goodTo[i] is the time of pool[i]'s oldest member: the entry stands
	// until the window start passes it (math.MaxInt64 for an empty set,
	// which has nothing to lose), or until its user's log is touched, which
	// is recorded here as math.MinInt64.
	goodTo []ActionID

	rebuilds, reuses, refreshed int64
}

// publishPool brings the view up to the tracker's current state at window
// start ws and returns the pool to publish. A published set depends only on
// its user and ws, so an entry whose user is still in the pool is kept
// unless that user's log was touched since the last publish or the entry's
// oldest member left the window; joiners are read and leavers drop out.
// Everything is read on the first publish and when the stream lost track of
// which logs were touched.
func (t *Tracker) publishPool(fw *core.Framework, ws ActionID) []SeedInfluence {
	v := &t.view
	st := fw.Stream()
	if touched, tracked := st.DrainTouched(); !tracked {
		v.pool = nil // some touched logs went unrecorded: keep nothing
	} else {
		for _, u := range touched {
			if i, ok := poolIndex(v.pool, u); ok {
				v.goodTo[i] = math.MinInt64
			}
		}
	}
	users := fw.CandidateSeeds()
	if v.pool == nil || !slices.EqualFunc(v.pool, users, func(c SeedInfluence, u UserID) bool { return c.User == u }) {
		v.rebuilds++
		pool := make([]SeedInfluence, len(users))
		goodTo := make([]ActionID, len(users))
		for i, u := range users {
			if j, ok := poolIndex(v.pool, u); ok && v.goodTo[j] >= ws {
				pool[i], goodTo[i] = v.pool[j], v.goodTo[j]
			} else {
				pool[i], goodTo[i] = readInfluence(st, u, ws)
			}
		}
		v.pool, v.goodTo = pool, goodTo
		return v.pool
	}
	v.reuses++
	shared := true // v.pool is still the slice the last snapshot holds
	for i, c := range v.pool {
		if v.goodTo[i] >= ws {
			continue
		}
		if shared {
			v.pool, shared = slices.Clone(v.pool), false
		}
		v.pool[i], v.goodTo[i] = readInfluence(st, c.User, ws)
		v.refreshed++
	}
	return v.pool
}

// readInfluence copies I(u) for the window starting at ws out of the index,
// with the time of its oldest member (math.MaxInt64 when empty). The set is
// deliberately non-nil: a Snapshot must survive a JSON round trip
// bit-identically, and null decodes to nil.
func readInfluence(st *stream.Stream, u UserID, ws ActionID) (SeedInfluence, ActionID) {
	list := st.InfluenceRecency(u, ws)
	set := make([]UserID, len(list))
	for i, c := range list {
		set[i] = c.V
	}
	oldest := ActionID(math.MaxInt64)
	if n := len(list); n > 0 {
		oldest = list[n-1].T
	}
	return SeedInfluence{User: u, Influenced: set}, oldest
}

// Snapshot captures the tracker's current answer and counters in one
// self-contained value. Like every query method
// it must be called by the goroutine that owns the Tracker; unlike the
// other queries, the returned value is safe to hand to other goroutines —
// it shares nothing with the tracker's live state (see Snapshot for what
// consecutive snapshots share with each other).
func (t *Tracker) Snapshot() Snapshot {
	fw := t.fw
	fs := fw.Stats()
	fwk := IC
	if fw.Config().Sparse {
		fwk = SIC
	}
	seeds := append([]UserID{}, fw.Seeds()...)
	ws := fw.WindowStart()
	st := fw.Stream()
	pool := t.publishPool(fw, ws)
	// Every oracle's pool holds its seeds, so their sets are captured.
	infl := make([]SeedInfluence, len(seeds))
	for i, u := range seeds {
		j, _ := poolIndex(pool, u)
		infl[i] = pool[j]
	}
	ts := st.TierStats()
	coldSegs := 0
	if t.store != nil {
		coldSegs = t.store.LiveSegments()
	}
	return Snapshot{
		Framework:          fwk,
		Oracle:             t.orc,
		Processed:          fs.Processed,
		WindowStart:        ws,
		Seeds:              seeds,
		Value:              fw.Value(),
		Checkpoints:        fw.Checkpoints(),
		CheckpointStarts:   fw.CheckpointStarts(),
		CheckpointValues:   fw.CheckpointValues(),
		SeedInfluence:      infl,
		Candidates:         pool,
		AvgCheckpoints:     fs.AvgCheckpoints,
		ElementsFed:        fs.ElementsFed,
		CheckpointsCreated: fs.Created,
		CheckpointsDeleted: fs.Deleted,
		Counters: Counters{
			ElementsUnchanged: fs.ElementsUnchanged,
			Scans:             fs.Scans,
			ScanMembers:       fs.ScanMembers,
			ViewRebuilds:      t.view.rebuilds,
			ViewReuses:        t.view.reuses,
			ViewRefreshed:     t.view.refreshed,
			ResidentBytes:     st.RetainedBytesEstimate(),
			HotLogBytes:       ts.HotLogBytes,
			ColdLogBytes:      ts.ColdLogBytes,
			ColdUsers:         ts.ColdUsers,
			ColdSegments:      coldSegs,
			Spills:            ts.Spills,
			ColdFaults:        ts.ColdFaults,
		},
	}
}

// Internal returns the underlying framework for the benchmark harness and
// white-box examples. Treat it as read-only.
func (t *Tracker) Internal() *core.Framework { return t.fw }

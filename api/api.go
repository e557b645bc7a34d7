// Package api is the public wire surface of the simserve HTTP API: the
// request/response DTOs of every /v1 endpoint, the tracker Spec document
// format, the error contract — both the typed Client that reads it and the
// writers (WriteJSON, WriteError, Error.Write) the two serving binaries
// answer through — and the request caps. The server (internal/server) and
// the router (internal/router) marshal these exact types, so a program that
// imports api is coupled to the wire format by the compiler rather than by
// hand-maintained JSON literals.
//
// # Endpoints
//
//	GET  /v1/healthz                             HealthResponse
//	GET  /v1/trackers                            ListResponse
//	GET  /v1/trackers/{name}                     sim.Snapshot
//	POST /v1/trackers/{name}/actions             NDJSON body -> IngestResponse
//	GET  /v1/trackers/{name}/seeds               SeedsResponse
//	GET  /v1/trackers/{name}/value               ValueResponse
//	GET  /v1/trackers/{name}/window              WindowResponse
//	GET  /v1/trackers/{name}/checkpoints         CheckpointsResponse
//	GET  /v1/trackers/{name}/stats               StatsResponse
//	GET  /v1/trackers/{name}/metrics             TrackerMetricsResponse
//	GET  /v1/trackers/{name}/influence?user=U    InfluenceResponse
//	GET  /v1/trackers/{name}/candidates          CandidatesResponse
//	GET  /v1/trackers/{name}/candidates?ranked=1 CandidatesResponse, ranked form (simserve only)
//	POST /v1/trackers/{name}/query               QueryRequest -> QueryResponse
//	GET  /metrics                                Prometheus text format
//
// TrackerMetricsResponse embeds sim.Counters, the counters sim.Snapshot ends
// with, and /metrics is the same value again: per tracker, one
// simserve_<tag>{tracker="<name>"} series for every field with a metric
// tag, plus the snapshot's processed, value, checkpoints and elements_fed
// and the serving state as a number.
//
// A scatter-gather router (cmd/simrouter) serves the same tracker routes
// over a shard fleet — every one except {name} itself, {name}/metrics and
// /metrics — plus a cluster-shaped GET /v1/healthz (ClusterHealthResponse).
// When a shard is down the router answers merged reads (list, seeds,
// candidates, value, window, checkpoints, stats, query) from the survivors,
// sets the X-Partial: true response header, and marks the DTO's Partial
// field — callers choose between a partial answer and an error, the router
// never fails the whole read for one dead shard.
//
// # Error contract
//
// Every non-2xx response carries an ErrorResponse body:
//
//	{"error": "<human-readable message>", "code": <HTTP status>}
//
// with the code repeating the HTTP status line so error bodies are
// self-describing when logged or proxied. The statuses in use:
//
//	400  malformed request: bad NDJSON, bad query plan, bad parameters
//	404  unknown tracker
//	409  ingest conflict: a stream-order violation (non-monotonic ID,
//	     unknown parent) aborted the batch at the offending action;
//	     everything before it was applied
//	413  ingest body exceeds the server's size cap
//	429  shed by admission control: the ingest queue stayed full past the
//	     tracker's enqueue deadline; the batch was NOT applied — back off
//	     and retry (a Retry-After header carries a hint in seconds)
//	503  tracker (or server) is draining, the request's context expired
//	     while queued, a WAL append failed (the batch was NOT applied and
//	     may be retried), or a degraded tracker is serving reads only
//	     while it re-arms its durability path (Retry-After hints when)
//
// 429 and 503 are the retryable statuses; on ingest both guarantee the
// batch was not applied, so retrying cannot double-apply. The Client
// surfaces every non-2xx as an *Error value (with RetryAfter populated)
// and can retry them itself — see RetryPolicy.
package api

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/dataio"
	"repro/query"
	"repro/sim"
)

// Spec is the JSON/flag-configurable description of one served tracker: the
// sim.Config knobs plus serving-only settings. The zero value of every
// optional field means "sim's default".
type Spec struct {
	// K and Window are sim.Config.K and sim.Config.WindowSize; mandatory.
	K      int `json:"k"`
	Window int `json:"window"`
	// Slide, Beta, Framework ("sic"/"ic"), Oracle ("sieve", "threshold",
	// "blogwatch", "mkc"), TimeBased, Batch and ExpectedUsers
	// map onto the sim.Config fields of the same meaning. ExpectedUsers
	// also pre-sizes a name-mode tracker's intern table.
	Slide         int           `json:"slide,omitempty"`
	Beta          float64       `json:"beta,omitempty"`
	Framework     sim.Framework `json:"framework,omitempty"`
	Oracle        sim.Oracle    `json:"oracle,omitempty"`
	TimeBased     bool          `json:"time_based,omitempty"`
	Batch         int           `json:"batch,omitempty"`
	ExpectedUsers int           `json:"expected_users,omitempty"`
	// Names switches the tracker to name-mode ingest: NDJSON "user" fields
	// are strings, interned server-side to dense IDs in first-appearance
	// order. Name-mode trackers resolve names in /seeds, /influence and the
	// query layer's "names" operator; numeric "user" fields are rejected
	// (and string ones are rejected without Names) so the two ID spaces
	// cannot mix.
	Names bool `json:"names,omitempty"`
	// Queue is the ingest queue capacity in commands (batches), the bound
	// behind the Submit backpressure. 0 means the server default (256).
	// Validate refuses a negative value, here and in the two fields below.
	Queue int `json:"queue,omitempty"`
	// EnqueueDeadlineMillis bounds how long an ingest waits for space in a
	// full queue before the server sheds it with 429 (admission control: a
	// wedged ingest loop must not wedge HTTP handlers). 0 means the server
	// default (2000 ms).
	EnqueueDeadlineMillis int `json:"enqueue_deadline_ms,omitempty"`
	// SnapshotWALBytes is the write-ahead-log size that triggers a
	// snapshot+truncate on a durable registry (one with a data dir). 0
	// means the server default (4 MiB). Ignored without durability.
	SnapshotWALBytes int64 `json:"snapshot_wal_bytes,omitempty"`
	// MemoryBudgetBytes bounds the tracker's resident contribution-log
	// bytes: past it, the longest-idle users' logs spill to immutable cold
	// segment files at the window's expiry boundary and stay there until
	// they expire — reads go through to them without moving them back into
	// RAM (sim.Config.MemoryBudgetBytes). Answers are bit-identical
	// with or without a budget; only memory residency and I/O change. 0
	// (the default) never spills. Requires durability: the tracker spills
	// under <data-dir>/<name>/spill, and a budget without a data dir
	// refuses the tracker at startup.
	MemoryBudgetBytes int64 `json:"memory_budget_bytes,omitempty"`
}

// Validate refuses a negative queue, enqueue_deadline_ms or
// snapshot_wal_bytes, naming the JSON field: 0 is each one's server
// default, and no negative value means anything. ReadSpecs and
// server.Registry.Add both call it; sim.New checks the rest.
func (s Spec) Validate() error {
	switch {
	case s.Queue < 0:
		return fmt.Errorf("queue must be >= 0, got %d", s.Queue)
	case s.EnqueueDeadlineMillis < 0:
		return fmt.Errorf("enqueue_deadline_ms must be >= 0, got %d", s.EnqueueDeadlineMillis)
	case s.SnapshotWALBytes < 0:
		return fmt.Errorf("snapshot_wal_bytes must be >= 0, got %d", s.SnapshotWALBytes)
	}
	return nil
}

// Config converts the spec to the sim.Config it describes.
func (s Spec) Config() sim.Config {
	return sim.Config{
		K:             s.K,
		WindowSize:    s.Window,
		Slide:         s.Slide,
		Beta:          s.Beta,
		Framework:     s.Framework,
		Oracle:        s.Oracle,
		TimeBased:     s.TimeBased,
		BatchSize:     s.Batch,
		ExpectedUsers: s.ExpectedUsers,
	}
}

// specFile is the on-disk shape of a multi-tracker spec:
//
//	{"trackers": {"default": {"k": 10, "window": 50000, "oracle": "sieve"}}}
type specFile struct {
	Trackers map[string]Spec `json:"trackers"`
}

// ReadSpecs parses a tracker spec document (see specFile) and returns the
// named specs. Unknown fields are rejected so typos fail loudly at startup.
func ReadSpecs(r io.Reader) (map[string]Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var f specFile
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("api: parsing tracker specs: %w", err)
	}
	if len(f.Trackers) == 0 {
		return nil, fmt.Errorf("api: spec declares no trackers")
	}
	for name, sp := range f.Trackers {
		if err := sp.Validate(); err != nil {
			return nil, fmt.Errorf("api: tracker %q: %w", name, err)
		}
	}
	return f.Trackers, nil
}

// NamedAction is one action of a name-mode ingest: like sim.Action but with
// the user as an external string name. Parent is -1 (or sim.NoParent) for
// root actions.
type NamedAction = dataio.NamedAction

// IngestResponse answers POST /v1/trackers/{name}/actions.
type IngestResponse struct {
	// Accepted is the number of actions in the request body.
	Accepted int `json:"accepted"`
	// Processed is the tracker's lifetime accepted-action count after this
	// batch was applied.
	Processed int64 `json:"processed"`
}

// SeedsResponse answers GET /v1/trackers/{name}/seeds. A router merges its
// shards' ranked candidates (CandidatesResponse) into this answer; on a
// name-mode tracker its Seeds then holds each seed's dense ID on the shard
// that owns it, which says nothing across shards — Names is the identity.
type SeedsResponse struct {
	Seeds       []sim.UserID `json:"seeds"`
	Value       float64      `json:"value"`
	WindowStart sim.ActionID `json:"window_start"`
	Processed   int64        `json:"processed"`
	// Names carries the seeds' external names, index-aligned with Seeds,
	// on name-mode trackers only.
	Names []string `json:"names,omitempty"`
	// Partial marks a router answer computed without every shard (see the
	// package comment); never set by a single server.
	Partial bool `json:"partial,omitempty"`
}

// ValueResponse answers GET /v1/trackers/{name}/value.
type ValueResponse struct {
	Value     float64 `json:"value"`
	Processed int64   `json:"processed"`
	// Partial marks a router answer computed without every shard.
	Partial bool `json:"partial,omitempty"`
}

// WindowResponse answers GET /v1/trackers/{name}/window.
type WindowResponse struct {
	WindowStart sim.ActionID `json:"window_start"`
	Processed   int64        `json:"processed"`
	// Partial marks a router answer computed without every shard.
	Partial bool `json:"partial,omitempty"`
}

// CheckpointsResponse answers GET /v1/trackers/{name}/checkpoints: the live
// checkpoints' start IDs and oracle values in ascending start order.
type CheckpointsResponse struct {
	Checkpoints int            `json:"checkpoints"`
	Starts      []sim.ActionID `json:"starts"`
	Values      []float64      `json:"values"`
	// Partial marks a router answer computed without every shard.
	Partial bool `json:"partial,omitempty"`
}

// CandidateSeed is one entry of CandidatesResponse: a shard-local candidate
// seed together with its current influence set — everything a merge layer
// needs to re-score the candidate against candidates from other partitions
// — or, in the ranked form, with the marginal gain the shard's own greedy
// pass picked it at and no set.
type CandidateSeed struct {
	User sim.UserID `json:"user"`
	// Name is the candidate's external name on name-mode trackers. Dense
	// numeric IDs are per-tracker intern order and NOT comparable across
	// trackers; names are the only cross-shard identity in name mode.
	Name string `json:"name,omitempty"`
	// Influenced is the candidate's current influence set within the
	// window (Definition 1), most recently influenced first; null in the
	// ranked form.
	Influenced []sim.UserID `json:"influenced"`
	// InfluencedNames carries the influence set as external names,
	// index-aligned with Influenced, on name-mode trackers only.
	InfluencedNames []string `json:"influenced_names,omitempty"`
	// Coverage is the influence objective of this candidate alone
	// (cardinality of its influence set under the default unweighted
	// objective), in both forms.
	Coverage float64 `json:"coverage"`
	// Gain, in the ranked form only, is the candidate's marginal gain at
	// its pick: what it adds to the coverage of the candidates listed
	// before it. Gains never increase down the list and equal gains are
	// listed in ascending User order.
	Gain float64 `json:"gain,omitempty"`
}

// CandidatesResponse answers GET /v1/trackers/{name}/candidates: the
// answering checkpoint's full candidate pool (a superset of /seeds for the
// sieve-style oracles), ascending by user, with per-candidate influence
// sets.
//
// With ?ranked=1 a simserve answers in the ranked form instead — the
// shard-local half of a router's merged /seeds: at most K candidates, the
// picks of one exact lazy-greedy pass over that same pool in pick order,
// each with its marginal Gain and without its set. User partitioning keeps
// the shards' influence universes disjoint, so a pick on one shard changes
// no gain on another and the router obtains the greedy ranking of the union
// of all pools by merging the shards' rankings on (Gain descending, User
// ascending), without ever seeing a set (see internal/router). A router
// serves only the full form; it ignores the parameter.
//
// Both forms are computed from the tracker's published snapshot and never
// wait for the ingest loop.
type CandidatesResponse struct {
	Candidates []CandidateSeed `json:"candidates"`
	// K echoes the tracker's cardinality budget.
	K int `json:"k"`
	// Value is the shard-local sieve objective of the tracker's own /seeds
	// answer, for comparison against the re-scored merge.
	Value       float64      `json:"value"`
	WindowStart sim.ActionID `json:"window_start"`
	Processed   int64        `json:"processed"`
	// Partial marks a router answer computed without every shard.
	Partial bool `json:"partial,omitempty"`
}

// InfluenceResponse answers GET /v1/trackers/{name}/influence?user=U: the
// users U currently influences within the window (Definition 1). On a
// name-mode tracker U is an external name, echoed in Name.
type InfluenceResponse struct {
	User        sim.UserID   `json:"user"`
	Name        string       `json:"name,omitempty"`
	Influenced  []sim.UserID `json:"influenced"`
	Count       int          `json:"count"`
	WindowStart sim.ActionID `json:"window_start"`
}

// TrackerInfo is one entry of ListResponse.
type TrackerInfo struct {
	Name      string `json:"name"`
	Spec      Spec   `json:"spec"`
	Processed int64  `json:"processed"`
}

// ListResponse answers GET /v1/trackers.
type ListResponse struct {
	Trackers []TrackerInfo `json:"trackers"`
	// Partial marks a router answer computed without every shard.
	Partial bool `json:"partial,omitempty"`
}

// StatsResponse answers GET /v1/trackers/{name}/stats: the sim.Stats view
// plus the cumulative framework counters.
type StatsResponse struct {
	Stats              sim.Stats `json:"stats"`
	CheckpointsCreated int64     `json:"checkpoints_created"`
	CheckpointsDeleted int64     `json:"checkpoints_deleted"`
	QueueDepth         int       `json:"queue_depth"`
	QueueCapacity      int       `json:"queue_capacity"`
	// Partial marks a router answer computed without every shard.
	Partial bool `json:"partial,omitempty"`
}

// HealthResponse answers GET /v1/healthz: build info plus the coarse
// liveness facts an orchestration probe wants.
type HealthResponse struct {
	Status        string  `json:"status"`
	Version       string  `json:"version"`
	GoVersion     string  `json:"go_version"`
	Trackers      int     `json:"trackers"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Durable reports whether the registry persists tracker state (a data
	// dir is configured).
	Durable bool `json:"durable"`
	// Degraded maps tracker names to what degrades them: the latest
	// snapshot-write failure while a durable tracker cannot snapshot
	// (batches stay safe in its ever-growing WAL, but recovery replays
	// lengthen until the underlying condition clears), else the first
	// failed cold-tier operation — a segment read, whose answers fell back
	// to the hot tier, or a spill write. The cold-tier entry stays until the
	// tracker restarts. Status is "degraded" whenever Degraded is present.
	Degraded map[string]string `json:"degraded,omitempty"`
	// States maps tracker names to their serving state: "ok" (full
	// service), "degraded-readonly" (the durability path is poisoned —
	// reads and queries keep answering, ingest gets 503 until the tracker
	// re-arms), or "recovering" (a re-arm attempt is running right now).
	// Status is "degraded" whenever any tracker is not "ok".
	States map[string]string `json:"states,omitempty"`
}

// ShardHealth is one shard's entry in ClusterHealthResponse, as observed by
// the router's last contact (a proxied probe or a failed fan-out call).
type ShardHealth struct {
	// Addr is the shard's base URL as configured on the router.
	Addr string `json:"addr"`
	// Healthy reports whether the router currently considers the shard
	// reachable; unhealthy shards are skipped by reads (Partial results)
	// and re-probed in the background.
	Healthy bool `json:"healthy"`
	// Error is the last transport failure observed, for unhealthy shards.
	Error string `json:"error,omitempty"`
	// Status/Trackers echo the shard's own /v1/healthz when reachable.
	Status   string `json:"status,omitempty"`
	Trackers int    `json:"trackers,omitempty"`
}

// ClusterHealthResponse answers GET /v1/healthz on a router
// (cmd/simrouter): per-shard health plus the rolled-up status — "ok" when
// every shard is healthy and reports "ok", "degraded" otherwise.
type ClusterHealthResponse struct {
	Status  string        `json:"status"`
	Version string        `json:"version"`
	Shards  []ShardHealth `json:"shards"`
	// Healthy counts the shards currently considered reachable.
	Healthy int `json:"healthy"`
}

// TrackerMetricsResponse answers GET /v1/trackers/{name}/metrics: the
// tracker's serving state, its self-healing and admission-control counters
// and the engine's sim.Counters — the typed form of the tracker's /metrics
// series, for operators and tests that need more than the coarse /stats
// view. A field's metric tag names its /metrics series after "simserve_",
// as on sim.Counters.
type TrackerMetricsResponse struct {
	// State is the serving state: "ok", "degraded-readonly" or
	// "recovering" (see HealthResponse.States).
	State string `json:"state"`
	// SnapshotRetries counts failed snapshot-write attempts (each is
	// retried with capped exponential backoff).
	SnapshotRetries int64 `json:"snapshot_retries" metric:"snapshot_retries_total"`
	// WALRearms counts successful durability re-arms: a fresh covering
	// snapshot published and the WAL recreated empty after a poisoning.
	WALRearms int64 `json:"wal_rearms" metric:"wal_rearms_total"`
	// ShedRequests counts ingests rejected with 429 because the queue
	// stayed full past the enqueue deadline.
	ShedRequests int64 `json:"shed_requests" metric:"shed_total"`
	// QueueDepthHighWater is the deepest the ingest queue has been.
	QueueDepthHighWater int64 `json:"queue_depth_high_water" metric:"queue_high_water"`
	// QueueDepth / QueueCapacity mirror the live /stats values.
	QueueDepth    int `json:"queue_depth" metric:"queue_depth"`
	QueueCapacity int `json:"queue_capacity" metric:"queue_capacity"`
	// DurabilityError is the latest snapshot/WAL failure message, empty
	// when healthy.
	DurabilityError string `json:"durability_error,omitempty"`
	// Counters are the tracker's counters as of its published snapshot:
	// oracle-feed work, candidate-pool view and tiered window state since
	// boot (the tier fields are all zero without a memory budget).
	sim.Counters
	// Boot recovery shape, for durable trackers: whether a snapshot was
	// mapped in (cold segments re-adopted, not replayed) and how much WAL
	// tail was replayed on top. internal/proc's TestSpill asserts
	// segment-mapped recovery through these.
	RecoveredSnapshot          bool  `json:"recovered_snapshot,omitempty"`
	RecoveredSnapshotProcessed int64 `json:"recovered_snapshot_processed,omitempty"`
	RecoveredWALBatches        int   `json:"recovered_wal_batches,omitempty"`
	RecoveredWALActions        int   `json:"recovered_wal_actions,omitempty"`
}

// QueryRequest is the body of POST /v1/trackers/{name}/query: a relational
// plan (see package query for the plan language) executed lazily against
// the tracker's atomically published snapshot — never the live tracker, so
// queries of any cost run without touching the ingest loop.
type QueryRequest struct {
	Plan query.Plan `json:"plan"`
	// Limit caps the returned rows; 0 means the server default (10000).
	// Truncation is reported, not an error.
	Limit int `json:"limit,omitempty"`
}

// QueryResponse answers POST /v1/trackers/{name}/query.
type QueryResponse struct {
	// Columns names the result columns, in row order.
	Columns []string `json:"columns"`
	// Rows holds the result tuples; cells are JSON numbers or strings
	// (query.Value).
	Rows []query.Row `json:"rows"`
	// Truncated reports that the row limit cut the result short.
	Truncated bool `json:"truncated"`
	// Processed / WindowStart identify the snapshot the query ran against.
	Processed   int64        `json:"processed"`
	WindowStart sim.ActionID `json:"window_start"`
	// Partial marks a router answer computed without every shard.
	Partial bool `json:"partial,omitempty"`
}

// ErrorResponse is the body of every non-2xx JSON response; Code repeats
// the HTTP status (see the package comment for the full contract).
type ErrorResponse struct {
	Error string `json:"error"`
	Code  int    `json:"code"`
}

// Error is the typed form of a non-2xx response, returned by Client
// methods. Code is the HTTP status.
type Error struct {
	Code    int
	Message string
	// RetryAfter is the server's Retry-After hint, when present (429 and
	// 503 responses carry one); zero otherwise.
	RetryAfter time.Duration
}

func (e *Error) Error() string { return fmt.Sprintf("api: %s (HTTP %d)", e.Message, e.Code) }

// Temporary reports whether the error is a retryable server condition
// (429 shed or 503 unavailable) rather than a caller mistake. On ingest
// both statuses guarantee the batch was not applied.
func (e *Error) Temporary() bool {
	return e.Code == http.StatusTooManyRequests || e.Code == http.StatusServiceUnavailable
}

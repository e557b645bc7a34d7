// Package server is the long-lived serving layer over the sim library: the
// engine behind cmd/simserve. It turns the single-goroutine sim.Tracker
// into a system that ingests a social stream and answers queries
// concurrently, the "real-time" operating mode the paper targets.
//
// # Architecture
//
// A Registry owns named Tracked instances. Each Tracked wraps one
// sim.Tracker behind a gate that one caller holds at a time: POST bodies,
// replay batches and read closures all wait for it in a bounded queue and
// run on the caller's own goroutine once they hold it, so the tracker only
// ever has one writer and ingestion order is total. A full queue applies
// backpressure briefly, then admission control sheds the request
// (ErrOverloaded → 429) once it has waited past the tracker's enqueue
// deadline, so a wedged writer cannot wedge every HTTP handler goroutine
// with it. A caller whose context ends before it holds the gate never runs.
// After every applied batch the writer publishes an immutable sim.Snapshot
// through an atomic pointer; the GET handlers for
// seeds, value, window, checkpoints, stats and candidates — and the
// relational /query endpoint (package query) — read only that snapshot and
// therefore never contend with ingestion, and no read publishes one. The
// snapshot carries the candidate pool's influence sets, so /influence reads
// it too for any pool member; only for a user outside the pool does it run
// as a closure under the gate itself (Tracked.Query), serialized with the
// writes. Closing a Tracked first rejects new work, then drains everything
// already queued, then takes a durable tracker's final snapshot — the
// graceful-drain path wired to SIGTERM in cmd/simserve. No tracker runs a
// goroutine of its own: a poisoned log is re-armed by the next batch.
//
// Name-mode trackers (api.Spec.Names) accept external string user names on
// ingest, interned to dense IDs (package intern) before the batch enters
// the queue; reads resolve IDs back through the same table.
//
// # HTTP API
//
// The wire surface — endpoint list, request/response DTOs, the error
// contract ({"error": ..., "code": ...} on every non-2xx) and a typed
// client — is package api. This package declares no wire types of its own.
package server

import (
	"context"
	"errors"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"repro/api"
	"repro/internal/dataio"
	"repro/internal/greedy"
	"repro/query"
	"repro/sim"
)

// maxBodyBytes caps an ingest request body. It is a variable only so tests
// can reach 413 with a small body (export_test.go).
var maxBodyBytes int64 = api.DefaultMaxBodyBytes

// Server is the HTTP front of a Registry. It implements http.Handler.
type Server struct {
	reg     *Registry
	mux     *http.ServeMux
	started time.Time
}

// New returns a Server over reg.
func New(reg *Registry) *Server {
	s := &Server{reg: reg, mux: http.NewServeMux(), started: time.Now()}
	s.mux.HandleFunc("POST /v1/trackers/{name}/actions", s.handleIngest)
	s.mux.HandleFunc("POST /v1/trackers/{name}/query", s.handleQuery)
	s.mux.HandleFunc("GET /v1/trackers", s.handleList)
	s.mux.HandleFunc("GET /v1/trackers/{name}", s.read(snapshot))
	s.mux.HandleFunc("GET /v1/trackers/{name}/seeds", s.read(seeds))
	s.mux.HandleFunc("GET /v1/trackers/{name}/value", s.read(value))
	s.mux.HandleFunc("GET /v1/trackers/{name}/window", s.read(window))
	s.mux.HandleFunc("GET /v1/trackers/{name}/checkpoints", s.read(checkpoints))
	s.mux.HandleFunc("GET /v1/trackers/{name}/stats", s.read(stats))
	s.mux.HandleFunc("GET /v1/trackers/{name}/metrics", s.handleTrackerMetrics)
	s.mux.HandleFunc("GET /v1/trackers/{name}/influence", s.handleInfluence)
	s.mux.HandleFunc("GET /v1/trackers/{name}/candidates", s.handleCandidates)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealth)
	return s
}

// handleHealth serves the probe endpoint. Status degrades when a durable
// tracker's snapshot writes are failing (ingestion still works, the WAL
// keeps every batch, but the log grows until the condition clears), when a
// cold-tier operation has failed, or when a tracker's durability path is
// poisoned outright and it is serving in degraded-readonly mode; per-tracker
// detail lives in "degraded" (failure message) and "states" (serving state).
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	names := s.reg.Names()
	var degraded map[string]string
	var states map[string]string
	for _, n := range names {
		t, ok := s.reg.Get(n)
		if !ok {
			continue
		}
		if msg := t.degradation(); msg != "" {
			if degraded == nil {
				degraded = make(map[string]string)
			}
			degraded[n] = msg
		}
		if st := t.State(); st != StateOK {
			if states == nil {
				states = make(map[string]string)
			}
			states[n] = st.String()
		}
	}
	status := "ok"
	if len(degraded) > 0 || len(states) > 0 {
		status = "degraded"
	}
	api.WriteJSON(w, http.StatusOK, api.HealthResponse{
		Status:        status,
		Version:       api.Version,
		GoVersion:     runtime.Version(),
		Trackers:      len(names),
		UptimeSeconds: time.Since(s.started).Seconds(),
		Durable:       s.reg.DataDir() != "",
		Degraded:      degraded,
		States:        states,
	})
}

// handleTrackerMetrics serves one tracker's Metrics: the JSON sibling of
// its /metrics series, for scripts and tests that want typed access.
func (s *Server) handleTrackerMetrics(w http.ResponseWriter, r *http.Request) {
	if t, ok := s.tracked(w, r); ok {
		api.WriteJSON(w, http.StatusOK, t.Metrics())
	}
}

// ServeHTTP dispatches to the v1 API.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Registry returns the registry the server fronts.
func (s *Server) Registry() *Registry { return s.reg }

// Close drains and stops every tracker (see Registry.Close). Call after the
// HTTP listener has shut down so in-flight requests finish first.
func (s *Server) Close() error { return s.reg.Close() }

// retryAfterHint is the Retry-After value sent with the 429 and 503
// responses that promise the request was not applied. Coarse on purpose: it
// tells well-behaved clients to back off, not when recovery will actually
// finish.
const retryAfterHint = time.Second

// writeRetryable emits a 429/503 for err with a Retry-After header, the
// signal that the request was NOT applied and may safely be retried.
func writeRetryable(w http.ResponseWriter, code int, err error) {
	(&api.Error{Code: code, Message: err.Error(), RetryAfter: retryAfterHint}).Write(w)
}

// tracked resolves the {name} path value, answering 404 when unknown.
func (s *Server) tracked(w http.ResponseWriter, r *http.Request) (*Tracked, bool) {
	name := r.PathValue("name")
	t, ok := s.reg.Get(name)
	if !ok {
		api.WriteError(w, http.StatusNotFound, "unknown tracker %q", name)
		return nil, false
	}
	return t, true
}

// handleIngest parses an NDJSON body and applies it as one batch under the
// tracker's gate. On name-mode trackers the "user" field is a string name,
// interned here — concurrently safe — so the writer only ever sees dense
// IDs. Responses: 200 IngestResponse, 400 for malformed
// NDJSON (including a numeric user on a name-mode tracker and vice versa),
// 409 for stream-order violations (non-monotonic IDs, future parents), 413
// over the body cap, 429 when admission control sheds the request, 503
// while draining, after a WAL append failure, while the tracker is in
// degraded-readonly mode, or when the request's context ended before the
// batch reached the gate — every 503 cause guarantees the batch was not
// applied, so retrying is safe. The body is read before any of that, in
// degraded-readonly mode too: a malformed body is a 400 and an empty one a
// 200 there as anywhere, and a batch is what re-arms a poisoned log, so one
// that finds the disk healed is applied in the same request.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tracked(w, r)
	if !ok {
		return
	}
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	var batch []sim.Action
	var err error
	if tb := t.Names(); tb != nil {
		err = dataio.ReadNDJSONNamed(body, func(a dataio.NamedAction) bool {
			batch = append(batch, sim.Action{
				ID:     a.ID,
				User:   sim.UserID(tb.Intern(a.User)),
				Parent: a.Parent,
			})
			return true
		})
	} else {
		err = dataio.ReadNDJSON(body, func(a sim.Action) bool {
			batch = append(batch, a)
			return true
		})
	}
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			api.WriteError(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", tooLarge.Limit)
			return
		}
		api.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	processed := t.Snapshot().Processed
	if len(batch) > 0 {
		processed, err = t.Submit(r.Context(), batch)
		if err != nil {
			switch {
			case errors.Is(err, ErrOverloaded):
				// Admission control: the queue stayed full past the
				// enqueue deadline. Shed, not applied — back off and retry.
				writeRetryable(w, http.StatusTooManyRequests, err)
			case errors.Is(err, ErrReadOnly):
				// Degraded-readonly: the durability path is poisoned and
				// this batch could not re-arm it. Rejected unapplied; a
				// later batch re-arms the log once the disk heals.
				writeRetryable(w, http.StatusServiceUnavailable, err)
			case errors.Is(err, ErrDurability):
				// WAL append failed: the batch was rejected unapplied so
				// the log never lags the tracker. Retryable server fault.
				writeRetryable(w, http.StatusServiceUnavailable, err)
			case errors.Is(err, ErrClosed),
				errors.Is(err, context.Canceled),
				errors.Is(err, context.DeadlineExceeded):
				api.WriteError(w, http.StatusServiceUnavailable, "%v", err)
			default:
				// Stream-order violation: the batch aborted at the
				// offending action; everything before it is applied.
				api.WriteError(w, http.StatusConflict, "%v", err)
			}
			return
		}
	}
	api.WriteJSON(w, http.StatusOK, api.IngestResponse{
		Accepted:  len(batch),
		Processed: processed,
	})
}

// handleQuery executes a relational plan (package query) against the
// tracker's published snapshot — and, for window-compare sources, the
// previously published one. Execution never waits for the gate or touches
// the live tracker: a query of any cost runs concurrently with ingestion.
// Responses: 200 QueryResponse, 400 for an undecodable body or a plan that
// fails compilation (unknown source/op/column, bad comparator).
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tracked(w, r)
	if !ok {
		return
	}
	req, limit, ok := api.DecodeQuery(w, r)
	if !ok {
		return
	}
	snap := t.Snapshot()
	env := query.Env{Current: snap, Previous: t.PrevSnapshot()}
	if tb := t.Names(); tb != nil {
		env.Name = tb.Name
	}
	rel, err := req.Plan.Open(env)
	if err != nil {
		api.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	rows, truncated := query.Collect(rel, limit)
	if rows == nil {
		rows = []query.Row{}
	}
	api.WriteJSON(w, http.StatusOK, api.QueryResponse{
		Columns:     []string(rel.Schema()),
		Rows:        rows,
		Truncated:   truncated,
		Processed:   snap.Processed,
		WindowStart: snap.WindowStart,
	})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	resp := api.ListResponse{Trackers: []api.TrackerInfo{}}
	for _, name := range s.reg.Names() {
		t, ok := s.reg.Get(name)
		if !ok {
			continue
		}
		resp.Trackers = append(resp.Trackers, api.TrackerInfo{
			Name:      name,
			Spec:      t.Spec(),
			Processed: t.Snapshot().Processed,
		})
	}
	api.WriteJSON(w, http.StatusOK, resp)
}

// read wraps the reads that are a projection of the published snapshot and
// nothing else: resolve the tracker, load its snapshot, write the DTO build
// makes of the two.
func (s *Server) read(build func(*Tracked, *sim.Snapshot) any) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if t, ok := s.tracked(w, r); ok {
			api.WriteJSON(w, http.StatusOK, build(t, t.Snapshot()))
		}
	}
}

func snapshot(_ *Tracked, snap *sim.Snapshot) any { return snap }

func seeds(t *Tracked, snap *sim.Snapshot) any {
	resp := api.SeedsResponse{
		Seeds:       snap.Seeds,
		Value:       snap.Value,
		WindowStart: snap.WindowStart,
		Processed:   snap.Processed,
	}
	if tb := t.Names(); tb != nil {
		resp.Names = make([]string, len(snap.Seeds))
		for i, u := range snap.Seeds {
			resp.Names[i], _ = tb.Name(uint32(u))
		}
	}
	return resp
}

func value(_ *Tracked, snap *sim.Snapshot) any {
	return api.ValueResponse{Value: snap.Value, Processed: snap.Processed}
}

func window(_ *Tracked, snap *sim.Snapshot) any {
	return api.WindowResponse{WindowStart: snap.WindowStart, Processed: snap.Processed}
}

func checkpoints(_ *Tracked, snap *sim.Snapshot) any {
	return api.CheckpointsResponse{
		Checkpoints: snap.Checkpoints,
		Starts:      snap.CheckpointStarts,
		Values:      snap.CheckpointValues,
	}
}

func stats(t *Tracked, snap *sim.Snapshot) any {
	depth, capacity := t.QueueDepth()
	return api.StatsResponse{
		Stats:              snap.Stats(),
		CheckpointsCreated: snap.CheckpointsCreated,
		CheckpointsDeleted: snap.CheckpointsDeleted,
		QueueDepth:         depth,
		QueueCapacity:      capacity,
	}
}

// handleCandidates serves the answering checkpoint's candidate pool from
// the published snapshot — the shard-local half of the scatter-gather seed
// selection (see internal/router). The full form lists every pool member
// with its influence set; ?ranked=1 lists at most K of them, the picks of
// one lazy-greedy pass over those sets in pick order with their marginal
// gains and no sets, ranked here on the reading goroutine. On name-mode
// trackers each candidate (and, in the full form, its influence set) also
// carries external names, the only identity comparable across trackers.
func (s *Server) handleCandidates(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tracked(w, r)
	if !ok {
		return
	}
	ranked := false
	if p := r.URL.Query().Get("ranked"); p != "" {
		var err error
		if ranked, err = strconv.ParseBool(p); err != nil {
			api.WriteError(w, http.StatusBadRequest, "bad ranked parameter %q", p)
			return
		}
	}
	snap := t.Snapshot()
	resp := api.CandidatesResponse{
		K:           t.Spec().K,
		Value:       snap.Value,
		WindowStart: snap.WindowStart,
		Processed:   snap.Processed,
	}
	if ranked {
		sets := make(map[sim.UserID][]sim.UserID, len(snap.Candidates))
		for _, c := range snap.Candidates {
			sets[c.User] = c.Influenced
		}
		users, gains := greedy.RankSets(sets, resp.K, nil)
		resp.Candidates = make([]api.CandidateSeed, len(users))
		for i, u := range users {
			resp.Candidates[i] = api.CandidateSeed{User: u, Coverage: float64(len(sets[u])), Gain: gains[i]}
		}
	} else {
		resp.Candidates = make([]api.CandidateSeed, len(snap.Candidates))
		for i, c := range snap.Candidates {
			resp.Candidates[i] = api.CandidateSeed{
				User:       c.User,
				Influenced: c.Influenced,
				Coverage:   float64(len(c.Influenced)),
			}
		}
	}
	if tb := t.Names(); tb != nil {
		for i := range resp.Candidates {
			c := &resp.Candidates[i]
			c.Name, _ = tb.Name(uint32(c.User))
			if ranked {
				continue
			}
			c.InfluencedNames = make([]string, len(c.Influenced))
			for j, v := range c.Influenced {
				c.InfluencedNames[j], _ = tb.Name(uint32(v))
			}
		}
	}
	api.WriteJSON(w, http.StatusOK, resp)
}

// handleInfluence serves per-user influence sets: from the published
// snapshot when it holds the user's set (the candidate pool, seeds
// included), otherwise from the live stream index, as a closure under the
// tracker's gate serialized after everything already queued — the one read
// that can wait for ingest or be shed by its queue. The user parameter is a
// decimal ID on numeric trackers and an external name on name-mode ones
// (404 when the name has never been ingested).
func (s *Server) handleInfluence(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tracked(w, r)
	if !ok {
		return
	}
	userParam := r.URL.Query().Get("user")
	var u sim.UserID
	var resp api.InfluenceResponse
	if tb := t.Names(); tb != nil {
		if userParam == "" {
			api.WriteError(w, http.StatusBadRequest, "missing user parameter")
			return
		}
		id, ok := tb.Lookup(userParam)
		if !ok {
			api.WriteError(w, http.StatusNotFound, "unknown user %q", userParam)
			return
		}
		u = sim.UserID(id)
		resp.Name = userParam
	} else {
		u64, err := strconv.ParseUint(userParam, 10, 32)
		if err != nil {
			api.WriteError(w, http.StatusBadRequest, "bad or missing user parameter %q", userParam)
			return
		}
		u = sim.UserID(u64)
	}
	resp.User = u
	snap := t.Snapshot()
	if set, ok := snap.Influence(u); ok {
		resp.Influenced = set
		resp.Count = len(set)
		resp.WindowStart = snap.WindowStart
		api.WriteJSON(w, http.StatusOK, resp)
		return
	}
	qErr := t.Query(r.Context(), func(tr *sim.Tracker) {
		resp.Influenced = tr.InfluenceSet(u)
		resp.WindowStart = tr.WindowStart()
		if resp.Influenced == nil {
			resp.Influenced = []sim.UserID{}
		}
		resp.Count = len(resp.Influenced)
	})
	if qErr != nil {
		if errors.Is(qErr, ErrOverloaded) {
			writeRetryable(w, http.StatusTooManyRequests, qErr)
			return
		}
		api.WriteError(w, http.StatusServiceUnavailable, "%v", qErr)
		return
	}
	api.WriteJSON(w, http.StatusOK, resp)
}

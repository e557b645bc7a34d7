package router

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/api"
	"repro/internal/dataio"
	"repro/query"
	"repro/sim"
)

// Version is the build version reported by the router's /v1/healthz.
// Override at link time like internal/server.Version.
var Version = "dev"

// DefaultMaxBodyBytes caps an ingest request body, mirroring
// internal/server's cap.
const DefaultMaxBodyBytes = 64 << 20

// DefaultQueryRowLimit mirrors internal/server's default row cap, applied
// to the merged row stream after per-shard pushdown.
const DefaultQueryRowLimit = 10000

// errShardDown marks a shard skipped because the router already considers
// it unreachable; the background probe will bring it back.
var errShardDown = errors.New("router: shard is down")

// Options configures a Router. The zero value is serviceable.
type Options struct {
	// Retries is the per-shard api.Client retry budget (see
	// api.RetryPolicy for the safety rules); 0 means 2.
	Retries int
	// Timeout bounds each shard attempt; 0 means 10s.
	Timeout time.Duration
	// ProbeInterval paces the background re-probe of down shards; 0 means
	// 1s.
	ProbeInterval time.Duration
	// MaxBodyBytes caps ingest bodies; 0 means DefaultMaxBodyBytes.
	MaxBodyBytes int64
}

func (o Options) withDefaults() Options {
	if o.Retries == 0 {
		o.Retries = 2
	}
	if o.Timeout == 0 {
		o.Timeout = 10 * time.Second
	}
	if o.ProbeInterval == 0 {
		o.ProbeInterval = time.Second
	}
	if o.MaxBodyBytes == 0 {
		o.MaxBodyBytes = DefaultMaxBodyBytes
	}
	return o
}

// shard is one backend simserve instance plus the router's view of its
// reachability.
type shard struct {
	addr   string
	client *api.Client
	// down flips on transport-level failure and back on a successful
	// probe. An *api.Error never marks a shard down: it proves the shard
	// answered.
	down    atomic.Bool
	lastErr atomic.Value // string: last transport failure
}

func (s *shard) isDown() bool { return s.down.Load() }

func (s *shard) markUp() { s.down.Store(false) }

// noteErr classifies err after a shard call: transport failures mark the
// shard down (the caller's read goes partial, the probe re-arms it); an
// *api.Error or the caller's own cancellation never does.
func (s *shard) noteErr(err error) {
	var apiErr *api.Error
	if err == nil || errors.As(err, &apiErr) ||
		errors.Is(err, context.Canceled) || errors.Is(err, errShardDown) {
		return
	}
	s.lastErr.Store(err.Error())
	s.down.Store(true)
}

func (s *shard) lastError() string {
	if v, ok := s.lastErr.Load().(string); ok {
		return v
	}
	return ""
}

// Router is the scatter-gather HTTP front of a shard fleet. It implements
// http.Handler with the single-server tracker routes plus a cluster-shaped
// /v1/healthz; see the package comment for the merge rules.
type Router struct {
	shards []*shard
	ring   *Ring
	mux    *http.ServeMux
	opts   Options

	mu    sync.RWMutex
	specs map[string]api.Spec // tracker name → spec, learned from shard /v1/trackers
	// procCache remembers each shard's last reported lifetime processed
	// count per tracker, so an ingest that cannot reach an idle shard can
	// still report an exact-as-of-last-contact cluster total.
	procCache map[string][]int64

	quit chan struct{}
	done chan struct{}
}

// New builds a router over the shard base URLs (scheme://host:port) and
// starts its background probe. Callers own serving it (http.Server) and
// must Close it to stop the probe.
func New(addrs []string, opts Options) (*Router, error) {
	if len(addrs) == 0 {
		return nil, errors.New("router: need at least one shard address")
	}
	opts = opts.withDefaults()
	rt := &Router{
		ring:      NewRing(len(addrs)),
		opts:      opts,
		specs:     make(map[string]api.Spec),
		procCache: make(map[string][]int64),
		quit:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	for _, a := range addrs {
		c := api.NewClient(a)
		c.Timeout = opts.Timeout
		c.Retry = api.RetryPolicy{MaxRetries: opts.Retries, MinBackoff: 50 * time.Millisecond}
		rt.shards = append(rt.shards, &shard{addr: strings.TrimRight(a, "/"), client: c})
	}
	m := http.NewServeMux()
	m.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	m.HandleFunc("GET /v1/healthz", rt.handleClusterHealth)
	m.HandleFunc("GET /v1/trackers", rt.handleList)
	m.HandleFunc("POST /v1/trackers/{name}/actions", rt.handleIngest)
	m.HandleFunc("GET /v1/trackers/{name}/seeds", rt.handleSeeds)
	m.HandleFunc("GET /v1/trackers/{name}/value", rt.handleValue)
	m.HandleFunc("GET /v1/trackers/{name}/window", rt.handleWindow)
	m.HandleFunc("GET /v1/trackers/{name}/checkpoints", rt.handleCheckpoints)
	m.HandleFunc("GET /v1/trackers/{name}/stats", rt.handleStats)
	m.HandleFunc("GET /v1/trackers/{name}/candidates", rt.handleCandidates)
	m.HandleFunc("GET /v1/trackers/{name}/influence", rt.handleInfluence)
	m.HandleFunc("POST /v1/trackers/{name}/query", rt.handleQuery)
	rt.mux = m
	go rt.probeLoop()
	return rt, nil
}

// ServeHTTP dispatches to the cluster API.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) { rt.mux.ServeHTTP(w, r) }

// Close stops the background probe. It does not touch the shards.
func (rt *Router) Close() {
	close(rt.quit)
	<-rt.done
}

// Shards returns the configured shard base URLs, in ring index order.
func (rt *Router) Shards() []string {
	out := make([]string, len(rt.shards))
	for i, s := range rt.shards {
		out[i] = s.addr
	}
	return out
}

// Ring exposes the partition map (for tests and cmd/simrouter logs).
func (rt *Router) Ring() *Ring { return rt.ring }

// probeLoop periodically re-probes down shards with a plain health check
// and marks them up on success, so a restarted shard rejoins reads without
// operator action.
func (rt *Router) probeLoop() {
	defer close(rt.done)
	t := time.NewTicker(rt.opts.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-rt.quit:
			return
		case <-t.C:
			for _, s := range rt.shards {
				if !s.isDown() {
					continue
				}
				ctx, cancel := context.WithTimeout(context.Background(), rt.opts.Timeout)
				_, err := s.client.Health(ctx)
				cancel()
				if err == nil {
					s.markUp()
				}
			}
		}
	}
}

// scatter runs fn against every shard concurrently, skipping shards
// already marked down (their slot gets errShardDown). Transport failures
// observed by fn mark the shard down for subsequent requests.
func (rt *Router) scatter(fn func(i int, s *shard) error) []error {
	errs := make([]error, len(rt.shards))
	var wg sync.WaitGroup
	for i, s := range rt.shards {
		if s.isDown() {
			errs[i] = errShardDown
			continue
		}
		wg.Add(1)
		go func(i int, s *shard) {
			defer wg.Done()
			err := fn(i, s)
			s.noteErr(err)
			errs[i] = err
		}(i, s)
	}
	wg.Wait()
	return errs
}

// gather classifies a scatter's outcome for a merged read. A shard that
// answered with an *api.Error fails the whole read with that error passed
// through verbatim (the shard is alive and saying something deterministic,
// e.g. 404 unknown tracker); transport failures make the result partial;
// no answers at all is a 503. Returns ok=false when gather already wrote
// the response.
func (rt *Router) gather(w http.ResponseWriter, errs []error) (partial, ok bool) {
	answered := 0
	for _, err := range errs {
		if err == nil {
			answered++
			continue
		}
		var apiErr *api.Error
		if errors.As(err, &apiErr) {
			writeAPIError(w, apiErr)
			return false, false
		}
		partial = true
	}
	if answered == 0 {
		writeError(w, http.StatusServiceUnavailable, "no shard reachable")
		return false, false
	}
	return partial, true
}

// writeJSON emits v with status code, flagging partial merges with the
// X-Partial header (set before the status line goes out).
func writeJSON(w http.ResponseWriter, code int, partial bool, v any) {
	if partial {
		w.Header().Set("X-Partial", "true")
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError emits the api.ErrorResponse envelope — the same error
// contract as a single server, so clients need no router-specific casing.
func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, false, api.ErrorResponse{Error: fmt.Sprintf(format, args...), Code: code})
}

// writeAPIError passes a shard's error through unchanged, Retry-After
// included.
func writeAPIError(w http.ResponseWriter, e *api.Error) {
	if e.RetryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(int(e.RetryAfter/time.Second)))
	}
	writeError(w, e.Code, "%s", e.Message)
}

// specFor resolves a tracker's spec, consulting the cache first and then
// the shard fleet's /v1/trackers (any healthy shard will do: the fleet is
// homogeneously configured). The spec drives routing decisions the router
// cannot infer from a request alone — most importantly whether the tracker
// is name-mode (hash raw names) or numeric (hash IDs).
func (rt *Router) specFor(ctx context.Context, name string) (api.Spec, error) {
	rt.mu.RLock()
	sp, ok := rt.specs[name]
	rt.mu.RUnlock()
	if ok {
		return sp, nil
	}
	var lastErr error = &api.Error{Code: http.StatusNotFound, Message: fmt.Sprintf("unknown tracker %q", name)}
	for _, s := range rt.shards {
		if s.isDown() {
			continue
		}
		resp, err := s.client.List(ctx)
		if err != nil {
			s.noteErr(err)
			lastErr = err
			continue
		}
		rt.mu.Lock()
		for _, ti := range resp.Trackers {
			rt.specs[ti.Name] = ti.Spec
		}
		sp, ok = rt.specs[name]
		rt.mu.Unlock()
		if ok {
			return sp, nil
		}
		return api.Spec{}, &api.Error{Code: http.StatusNotFound, Message: fmt.Sprintf("unknown tracker %q", name)}
	}
	return api.Spec{}, lastErr
}

// noteProcessed records shard i's last reported lifetime processed count
// for a tracker.
func (rt *Router) noteProcessed(name string, i int, processed int64) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	c := rt.procCache[name]
	if c == nil {
		c = make([]int64, len(rt.shards))
		rt.procCache[name] = c
	}
	c[i] = processed
}

func (rt *Router) cachedProcessed(name string, i int) int64 {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	if c := rt.procCache[name]; c != nil {
		return c[i]
	}
	return 0
}

// handleClusterHealth probes every shard — down ones included, so a GET
// doubles as an on-demand probe — and reports per-shard health with the
// rolled-up status: "ok" only when every shard answers and reports "ok".
func (rt *Router) handleClusterHealth(w http.ResponseWriter, r *http.Request) {
	resp := api.ClusterHealthResponse{Version: Version, Shards: make([]api.ShardHealth, len(rt.shards))}
	var wg sync.WaitGroup
	for i, s := range rt.shards {
		wg.Add(1)
		go func(i int, s *shard) {
			defer wg.Done()
			h, err := s.client.Health(r.Context())
			sh := api.ShardHealth{Addr: s.addr}
			if err != nil {
				s.noteErr(err)
				sh.Healthy = false
				var apiErr *api.Error
				if errors.As(err, &apiErr) {
					sh.Error = apiErr.Message
				} else {
					sh.Error = s.lastError()
				}
			} else {
				s.markUp()
				sh.Healthy = true
				sh.Status = h.Status
				sh.Trackers = h.Trackers
			}
			resp.Shards[i] = sh
		}(i, s)
	}
	wg.Wait()
	resp.Status = "ok"
	for _, sh := range resp.Shards {
		if sh.Healthy {
			resp.Healthy++
		}
		if !sh.Healthy || (sh.Status != "" && sh.Status != "ok") {
			resp.Status = "degraded"
		}
	}
	writeJSON(w, http.StatusOK, false, resp)
}

// handleList merges the shard fleets' tracker lists. The fleet is
// homogeneously configured, so specs come from the first shard that
// reports a tracker and Processed counts sum across shards.
func (rt *Router) handleList(w http.ResponseWriter, r *http.Request) {
	resps := make([]api.ListResponse, len(rt.shards))
	errs := rt.scatter(func(i int, s *shard) error {
		var err error
		resps[i], err = s.client.List(r.Context())
		return err
	})
	partial, ok := rt.gather(w, errs)
	if !ok {
		return
	}
	merged := api.ListResponse{Trackers: []api.TrackerInfo{}, Partial: partial}
	index := map[string]int{}
	for i := range rt.shards {
		if errs[i] != nil {
			continue
		}
		for _, ti := range resps[i].Trackers {
			rt.mu.Lock()
			rt.specs[ti.Name] = ti.Spec
			rt.mu.Unlock()
			rt.noteProcessed(ti.Name, i, ti.Processed)
			if j, seen := index[ti.Name]; seen {
				merged.Trackers[j].Processed += ti.Processed
			} else {
				index[ti.Name] = len(merged.Trackers)
				merged.Trackers = append(merged.Trackers, ti)
			}
		}
	}
	sort.Slice(merged.Trackers, func(a, b int) bool { return merged.Trackers[a].Name < merged.Trackers[b].Name })
	writeJSON(w, http.StatusOK, partial, merged)
}

// handleIngest partitions the NDJSON body by acting user and fans the
// sub-batches out to their owning shards. Every shard receives a request —
// an empty sub-batch is a cheap processed-count read — so the response's
// Processed is the exact cluster total. A down shard with an empty
// sub-batch falls back to its cached count; a down (or failing) shard that
// OWNS part of the batch fails the ingest with that shard's error, and the
// response body names the shards that did apply their part (per-shard
// atomicity: the router does not undo applied sub-batches).
func (rt *Router) handleIngest(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	sp, err := rt.specFor(r.Context(), name)
	if err != nil {
		var apiErr *api.Error
		if errors.As(err, &apiErr) {
			writeAPIError(w, apiErr)
			return
		}
		writeError(w, http.StatusServiceUnavailable, "resolving tracker %q: %v", name, err)
		return
	}
	body := http.MaxBytesReader(w, r.Body, rt.opts.MaxBodyBytes)
	n := len(rt.shards)
	numParts := make([][]sim.Action, n)
	nameParts := make([][]api.NamedAction, n)
	total := 0
	if sp.Names {
		err = dataio.ReadNDJSONNamed(body, func(a dataio.NamedAction) bool {
			i := rt.ring.ShardForName(a.User)
			nameParts[i] = append(nameParts[i], api.NamedAction{ID: a.ID, User: a.User, Parent: a.Parent})
			total++
			return true
		})
	} else {
		err = dataio.ReadNDJSON(body, func(a sim.Action) bool {
			i := rt.ring.ShardForID(a.User)
			numParts[i] = append(numParts[i], a)
			total++
			return true
		})
	}
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", tooLarge.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	processed := make([]int64, n)
	errs := rt.scatter(func(i int, s *shard) error {
		var resp api.IngestResponse
		var err error
		if sp.Names {
			resp, err = s.client.IngestNamed(r.Context(), name, nameParts[i])
		} else {
			resp, err = s.client.Ingest(r.Context(), name, numParts[i])
		}
		if err != nil {
			return err
		}
		processed[i] = resp.Processed
		rt.noteProcessed(name, i, resp.Processed)
		return nil
	})
	var applied, failedOwners []string
	var failErr error
	sum := int64(0)
	for i, s := range rt.shards {
		owns := len(numParts[i]) > 0 || len(nameParts[i]) > 0
		if errs[i] == nil {
			sum += processed[i]
			if owns {
				applied = append(applied, s.addr)
			}
			continue
		}
		sum += rt.cachedProcessed(name, i)
		if owns {
			failedOwners = append(failedOwners, s.addr)
			if failErr == nil {
				failErr = errs[i]
			}
		}
	}
	if failErr != nil {
		code := http.StatusServiceUnavailable
		msg := failErr.Error()
		var apiErr *api.Error
		if errors.As(failErr, &apiErr) {
			code = apiErr.Code
			msg = apiErr.Message
		}
		if code == http.StatusServiceUnavailable || code == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", "1")
		}
		writeError(w, code, "shards %v failed (%s); shards %v applied their sub-batches",
			failedOwners, msg, applied)
		return
	}
	writeJSON(w, http.StatusOK, false, api.IngestResponse{Accepted: total, Processed: sum})
}

// handleSeeds is the distributed seed selection: every shard ranks its own
// candidate pool (the ranked form of its candidates endpoint: its lazy-greedy
// picks in order, each with its marginal gain, no influence sets) and the
// router merges the rankings. User partitioning makes shard influence
// universes disjoint, so a pick on one shard changes no marginal gain on
// another, and greedy over the union of the pools is exactly the merge of
// the shards' own greedy sequences by (gain descending, user ascending) —
// the order each sequence already has. Value is the sum of the merged gains:
// the exact coverage of the selection in the partitioned universe.
//
// Name-mode shards number users independently, so there a tie between
// shards goes to the lower shard index instead of the lower user ID, Seeds
// carries each seed's ID on its own shard, and Names is the identity.
func (rt *Router) handleSeeds(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	resps := make([]api.CandidatesResponse, len(rt.shards))
	errs := rt.scatter(func(i int, s *shard) error {
		var err error
		resps[i], err = s.client.CandidatesRanked(r.Context(), name)
		return err
	})
	partial, ok := rt.gather(w, errs)
	if !ok {
		return
	}
	named := rt.nameMode(r.Context(), name, resps, errs)
	out := api.SeedsResponse{Seeds: []sim.UserID{}, WindowStart: -1, Partial: partial}
	k := 0
	ranks := make([][]api.CandidateSeed, len(rt.shards)) // each shard's picks not merged yet
	for i := range rt.shards {
		if errs[i] != nil {
			continue
		}
		resp := resps[i]
		k = max(k, resp.K)
		out.Processed += resp.Processed
		rt.noteProcessed(name, i, resp.Processed)
		if out.WindowStart < 0 || resp.WindowStart < out.WindowStart {
			out.WindowStart = resp.WindowStart
		}
		ranks[i] = resp.Candidates
	}
	for len(out.Seeds) < k {
		best := -1
		for i, rank := range ranks {
			if len(rank) == 0 {
				continue
			}
			if best < 0 || rank[0].Gain > ranks[best][0].Gain ||
				(!named && rank[0].Gain == ranks[best][0].Gain && rank[0].User < ranks[best][0].User) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		pick := ranks[best][0]
		ranks[best] = ranks[best][1:]
		out.Seeds = append(out.Seeds, pick.User)
		out.Value += pick.Gain
		if named {
			out.Names = append(out.Names, pick.Name)
		}
	}
	writeJSON(w, http.StatusOK, partial, out)
}

// nameMode reports whether the tracker is name-mode, preferring the spec
// cache and falling back to inspecting the candidate responses (a
// candidate with a name ⇒ name mode) so seeds still merge correctly if the
// spec lookup raced a shard restart.
func (rt *Router) nameMode(ctx context.Context, name string, resps []api.CandidatesResponse, errs []error) bool {
	if sp, err := rt.specFor(ctx, name); err == nil {
		return sp.Names
	}
	for i := range resps {
		if errs[i] != nil {
			continue
		}
		for _, c := range resps[i].Candidates {
			return c.Name != ""
		}
	}
	return false
}

// handleCandidates serves the merged candidate pool: the concatenation of
// the shard pools (disjoint universes — no dedup needed), K as the fleet's
// budget, Value as the additive sum of shard-local objectives.
func (rt *Router) handleCandidates(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	resps := make([]api.CandidatesResponse, len(rt.shards))
	errs := rt.scatter(func(i int, s *shard) error {
		var err error
		resps[i], err = s.client.Candidates(r.Context(), name)
		return err
	})
	partial, ok := rt.gather(w, errs)
	if !ok {
		return
	}
	merged := api.CandidatesResponse{Candidates: []api.CandidateSeed{}, WindowStart: -1}
	for i := range rt.shards {
		if errs[i] != nil {
			continue
		}
		resp := resps[i]
		if resp.K > merged.K {
			merged.K = resp.K
		}
		merged.Value += resp.Value
		merged.Processed += resp.Processed
		if merged.WindowStart < 0 || resp.WindowStart < merged.WindowStart {
			merged.WindowStart = resp.WindowStart
		}
		merged.Candidates = append(merged.Candidates, resp.Candidates...)
	}
	writeJSON(w, http.StatusOK, partial, merged)
}

// handleValue sums the shard objectives: shard influence universes are
// disjoint, so the sum never double counts — the merge is exact, not a
// bound (see ARCHITECTURE.md "Cluster topology").
func (rt *Router) handleValue(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	resps := make([]api.ValueResponse, len(rt.shards))
	errs := rt.scatter(func(i int, s *shard) error {
		var err error
		resps[i], err = s.client.Value(r.Context(), name)
		return err
	})
	partial, ok := rt.gather(w, errs)
	if !ok {
		return
	}
	out := api.ValueResponse{Partial: partial}
	for i := range rt.shards {
		if errs[i] != nil {
			continue
		}
		out.Value += resps[i].Value
		out.Processed += resps[i].Processed
		rt.noteProcessed(name, i, resps[i].Processed)
	}
	writeJSON(w, http.StatusOK, partial, out)
}

// handleWindow reports the merged window: the oldest window start any
// shard still covers, with the cluster-total processed count.
func (rt *Router) handleWindow(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	resps := make([]api.WindowResponse, len(rt.shards))
	errs := rt.scatter(func(i int, s *shard) error {
		var err error
		resps[i], err = s.client.Window(r.Context(), name)
		return err
	})
	partial, ok := rt.gather(w, errs)
	if !ok {
		return
	}
	out := api.WindowResponse{WindowStart: -1, Partial: partial}
	for i := range rt.shards {
		if errs[i] != nil {
			continue
		}
		if out.WindowStart < 0 || resps[i].WindowStart < out.WindowStart {
			out.WindowStart = resps[i].WindowStart
		}
		out.Processed += resps[i].Processed
	}
	writeJSON(w, http.StatusOK, partial, out)
}

// handleCheckpoints merges checkpoint ledgers by start ID: starts union
// (sorted ascending, as a single server reports them), values summing
// where shards share a start — exact for the same disjoint-universe
// reason as /value.
func (rt *Router) handleCheckpoints(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	resps := make([]api.CheckpointsResponse, len(rt.shards))
	errs := rt.scatter(func(i int, s *shard) error {
		var err error
		resps[i], err = s.client.Checkpoints(r.Context(), name)
		return err
	})
	partial, ok := rt.gather(w, errs)
	if !ok {
		return
	}
	byStart := make(map[sim.ActionID]float64)
	for i := range rt.shards {
		if errs[i] != nil {
			continue
		}
		for j, start := range resps[i].Starts {
			v := 0.0
			if j < len(resps[i].Values) {
				v = resps[i].Values[j]
			}
			byStart[start] += v
		}
	}
	out := api.CheckpointsResponse{
		Checkpoints: len(byStart),
		Starts:      make([]sim.ActionID, 0, len(byStart)),
		Values:      make([]float64, 0, len(byStart)),
		Partial:     partial,
	}
	for start := range byStart {
		out.Starts = append(out.Starts, start)
	}
	sort.Slice(out.Starts, func(a, b int) bool { return out.Starts[a] < out.Starts[b] })
	for _, start := range out.Starts {
		out.Values = append(out.Values, byStart[start])
	}
	writeJSON(w, http.StatusOK, partial, out)
}

// handleStats sums the shard counters. Processed, ElementsFed, queue
// depths and checkpoint totals add; AvgCheckpoints is the processed-
// weighted mean so the cluster figure matches what one tracker over the
// union stream would report for the same per-action checkpoint counts.
func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	resps := make([]api.StatsResponse, len(rt.shards))
	errs := rt.scatter(func(i int, s *shard) error {
		var err error
		resps[i], err = s.client.Stats(r.Context(), name)
		return err
	})
	partial, ok := rt.gather(w, errs)
	if !ok {
		return
	}
	var out api.StatsResponse
	first := true
	var weighted float64
	for i := range rt.shards {
		if errs[i] != nil {
			continue
		}
		resp := resps[i]
		if first {
			out.Stats.Framework = resp.Stats.Framework
			out.Stats.Oracle = resp.Stats.Oracle
			first = false
		}
		out.Stats.Processed += resp.Stats.Processed
		out.Stats.Checkpoints += resp.Stats.Checkpoints
		out.Stats.ElementsFed += resp.Stats.ElementsFed
		weighted += resp.Stats.AvgCheckpoints * float64(resp.Stats.Processed)
		out.CheckpointsCreated += resp.CheckpointsCreated
		out.CheckpointsDeleted += resp.CheckpointsDeleted
		out.QueueDepth += resp.QueueDepth
		out.QueueCapacity += resp.QueueCapacity
		rt.noteProcessed(name, i, resp.Stats.Processed)
	}
	if out.Stats.Processed > 0 {
		out.Stats.AvgCheckpoints = weighted / float64(out.Stats.Processed)
	}
	out.Partial = partial
	writeJSON(w, http.StatusOK, partial, out)
}

// handleInfluence routes to the single shard that owns the user: all of a
// user's actions (and so their entire influence set) live on their ring
// shard, so this read needs no merge at all. A down owner is a plain 503 —
// there is no partial answer to a single-owner read.
func (rt *Router) handleInfluence(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	sp, err := rt.specFor(r.Context(), name)
	if err != nil {
		var apiErr *api.Error
		if errors.As(err, &apiErr) {
			writeAPIError(w, apiErr)
			return
		}
		writeError(w, http.StatusServiceUnavailable, "resolving tracker %q: %v", name, err)
		return
	}
	user := r.URL.Query().Get("user")
	var idx int
	if sp.Names {
		if user == "" {
			writeError(w, http.StatusBadRequest, "missing user parameter")
			return
		}
		idx = rt.ring.ShardForName(user)
	} else {
		u64, perr := strconv.ParseUint(user, 10, 32)
		if perr != nil {
			writeError(w, http.StatusBadRequest, "bad or missing user parameter %q", user)
			return
		}
		idx = rt.ring.ShardForID(sim.UserID(u64))
	}
	s := rt.shards[idx]
	if s.isDown() {
		writeError(w, http.StatusServiceUnavailable, "shard %s owning user %q is down", s.addr, user)
		return
	}
	resp, err := s.client.Influence(r.Context(), name, user)
	if err != nil {
		s.noteErr(err)
		var apiErr *api.Error
		if errors.As(err, &apiErr) {
			writeAPIError(w, apiErr)
			return
		}
		writeError(w, http.StatusServiceUnavailable, "shard %s: %v", s.addr, err)
		return
	}
	writeJSON(w, http.StatusOK, false, resp)
}

// handleQuery pushes the plan down to every shard unchanged and merges the
// row streams in shard order. Order- and cardinality-sensitive trailing
// operators (topk, limit) are re-applied router-side on the merged stream:
// a per-shard topk keeps each shard's local top K, so the union is a
// superset of the global top K and one more sort/truncate yields exactly
// the single-server answer. A topk buried mid-plan (followed by joins or
// filters) cannot be re-applied after the fact; the merged result is then
// the union of per-shard answers, which is the documented pushdown
// semantics.
func (rt *Router) handleQuery(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	var req api.QueryRequest
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad query request: %v", err)
		return
	}
	if req.Limit < 0 {
		writeError(w, http.StatusBadRequest, "bad query request: negative limit %d", req.Limit)
		return
	}
	resps := make([]api.QueryResponse, len(rt.shards))
	errs := rt.scatter(func(i int, s *shard) error {
		var err error
		resps[i], err = s.client.Query(r.Context(), name, req)
		return err
	})
	partial, ok := rt.gather(w, errs)
	if !ok {
		return
	}
	out := api.QueryResponse{WindowStart: -1, Partial: partial}
	for i := range rt.shards {
		if errs[i] != nil {
			continue
		}
		resp := resps[i]
		if out.Columns == nil {
			out.Columns = resp.Columns
		}
		out.Rows = append(out.Rows, resp.Rows...)
		out.Truncated = out.Truncated || resp.Truncated
		out.Processed += resp.Processed
		if out.WindowStart < 0 || resp.WindowStart < out.WindowStart {
			out.WindowStart = resp.WindowStart
		}
	}
	out.Rows = reapplyTrailing(req.Plan.Ops, out.Columns, out.Rows)
	limit := req.Limit
	if limit == 0 || limit > DefaultQueryRowLimit {
		limit = DefaultQueryRowLimit
	}
	if len(out.Rows) > limit {
		out.Rows = out.Rows[:limit]
		out.Truncated = true
	}
	if out.Rows == nil {
		out.Rows = []query.Row{}
	}
	writeJSON(w, http.StatusOK, partial, out)
}

// reapplyTrailing re-runs the plan's trailing topk/limit operators on the
// merged rows. Only the trailing run is sound to replay: an operator
// sandwiched between others already had its output transformed per-shard.
func reapplyTrailing(ops []query.Op, columns []string, rows []query.Row) []query.Row {
	start := len(ops)
	for start > 0 && (ops[start-1].Op == "topk" || ops[start-1].Op == "limit") {
		start--
	}
	for _, op := range ops[start:] {
		switch op.Op {
		case "topk":
			ci := -1
			for i, c := range columns {
				if c == op.Col {
					ci = i
					break
				}
			}
			if ci < 0 {
				continue
			}
			desc := op.Desc
			sort.SliceStable(rows, func(a, b int) bool {
				cmp := rows[a][ci].Compare(rows[b][ci])
				if desc {
					return cmp > 0
				}
				return cmp < 0
			})
			if op.K >= 0 && len(rows) > op.K {
				rows = rows[:op.K]
			}
		case "limit":
			if op.N >= 0 && len(rows) > op.N {
				rows = rows[:op.N]
			}
		}
	}
	return rows
}

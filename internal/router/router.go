package router

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"
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
	// MaxBodyBytes caps ingest bodies; 0 means api.DefaultMaxBodyBytes.
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
		o.MaxBodyBytes = api.DefaultMaxBodyBytes
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
	m.HandleFunc("GET /v1/healthz", rt.handleClusterHealth)
	// Every merged read is one row: the shard call and the fold over its
	// answers (ARCHITECTURE.md "Cluster topology" has the same table).
	m.HandleFunc("GET /v1/trackers", read(rt, list, mergeList))
	m.HandleFunc("GET /v1/trackers/{name}/seeds", read(rt, (*api.Client).CandidatesRanked, mergeSeeds))
	m.HandleFunc("GET /v1/trackers/{name}/candidates", read(rt, (*api.Client).Candidates, mergeCandidates))
	m.HandleFunc("GET /v1/trackers/{name}/value", read(rt, (*api.Client).Value, mergeValue))
	m.HandleFunc("GET /v1/trackers/{name}/window", read(rt, (*api.Client).Window, mergeWindow))
	m.HandleFunc("GET /v1/trackers/{name}/checkpoints", read(rt, (*api.Client).Checkpoints, mergeCheckpoints))
	m.HandleFunc("GET /v1/trackers/{name}/stats", read(rt, (*api.Client).Stats, mergeStats))
	m.HandleFunc("POST /v1/trackers/{name}/query", rt.handleQuery)
	m.HandleFunc("POST /v1/trackers/{name}/actions", rt.handleIngest)
	m.HandleFunc("GET /v1/trackers/{name}/influence", rt.handleInfluence)
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
			apiErr.Write(w)
			return false, false
		}
		partial = true
	}
	if answered == 0 {
		api.WriteError(w, http.StatusServiceUnavailable, "no shard reachable")
		return false, false
	}
	return partial, true
}

// head is what every merged DTO says about the cluster as a whole, folded
// once for all of them (see ask): the lifetime processed total, the oldest
// window start still covered, and whether a shard is missing from the answer.
type head struct {
	Processed   int64
	WindowStart sim.ActionID
	Partial     bool
}

// add folds one answered shard's counters into h. A tracker that has
// processed nothing reports a window start of −N, which is no window at all,
// so the oldest start is taken over the shards that have processed something
// and is the first shard's only when none has — the merged value does not
// depend on which shard is the empty one.
func (h *head) add(first bool, processed int64, windowStart sim.ActionID) {
	if first || (processed > 0 && (h.Processed == 0 || windowStart < h.WindowStart)) {
		h.WindowStart = windowStart
	}
	h.Processed += processed
}

// note is the one place that knows where each shard DTO (resp points at
// one) keeps the counters head folds. It returns them, and refreshes what the router remembers of
// shard i between requests: procCache, and from a tracker list the specs too.
func (rt *Router) note(name string, i int, resp any) (processed int64, windowStart sim.ActionID) {
	switch r := resp.(type) {
	case *api.ListResponse:
		for _, ti := range r.Trackers {
			rt.mu.Lock()
			rt.specs[ti.Name] = ti.Spec
			rt.mu.Unlock()
			rt.noteProcessed(ti.Name, i, ti.Processed)
		}
		return 0, 0
	case *api.CandidatesResponse:
		processed, windowStart = r.Processed, r.WindowStart
	case *api.WindowResponse:
		processed, windowStart = r.Processed, r.WindowStart
	case *api.QueryResponse:
		processed, windowStart = r.Processed, r.WindowStart
	case *api.ValueResponse:
		processed = r.Processed
	case *api.StatsResponse:
		processed = r.Stats.Processed
	case *api.CheckpointsResponse: // carries neither
		return 0, 0
	default:
		panic(fmt.Sprintf("router: no counters known for a shard's %T: add it to note", resp))
	}
	rt.noteProcessed(name, i, processed)
	return processed, windowStart
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

// ask is the scatter-gather under every merged read of tracker name: run call
// on every live shard, let gather decide the outcome, and return the answered
// shards' responses — in shard-index order, so float sums over them are
// reproducible — with the head folded over them. ok=false means the response
// is already written.
func ask[T any](rt *Router, w http.ResponseWriter, name string, call func(*api.Client) (T, error)) (parts []T, h head, ok bool) {
	resps := make([]T, len(rt.shards))
	errs := rt.scatter(func(i int, s *shard) (err error) {
		resps[i], err = call(s.client)
		return err
	})
	if h.Partial, ok = rt.gather(w, errs); !ok {
		return nil, h, false
	}
	for i := range resps {
		if errs[i] == nil {
			processed, windowStart := rt.note(name, i, &resps[i])
			h.add(len(parts) == 0, processed, windowStart)
			parts = append(parts, resps[i])
		}
	}
	return parts, h, true
}

// writeMerged emits a merged answer, flagging one computed without every
// shard with the X-Partial header (set before the status line goes out).
func writeMerged(w http.ResponseWriter, partial bool, v any) {
	if partial {
		w.Header().Set("X-Partial", "true")
	}
	api.WriteJSON(w, http.StatusOK, v)
}

// read is every merged GET: ask each shard through call, fold the answers
// with merge — a pure function of the head and at least one part, gather
// having answered 503 otherwise — and write once.
func read[T, M any](rt *Router, call func(*api.Client, context.Context, string) (T, error), merge func(head, []T) M) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		parts, h, ok := ask(rt, w, name, func(c *api.Client) (T, error) { return call(c, r.Context(), name) })
		if ok {
			writeMerged(w, h.Partial, merge(h, parts))
		}
	}
}

// list adapts the one shard call that takes no tracker name to read.
func list(c *api.Client, ctx context.Context, _ string) (api.ListResponse, error) {
	return c.List(ctx)
}

// mergeList merges the shard fleets' tracker lists. The fleet is
// homogeneously configured, so specs come from the first shard that
// reports a tracker and Processed counts sum across shards.
func mergeList(h head, parts []api.ListResponse) api.ListResponse {
	merged := api.ListResponse{Trackers: []api.TrackerInfo{}, Partial: h.Partial}
	index := map[string]int{}
	for _, p := range parts {
		for _, ti := range p.Trackers {
			if j, seen := index[ti.Name]; seen {
				merged.Trackers[j].Processed += ti.Processed
			} else {
				index[ti.Name] = len(merged.Trackers)
				merged.Trackers = append(merged.Trackers, ti)
			}
		}
	}
	slices.SortFunc(merged.Trackers, func(a, b api.TrackerInfo) int { return strings.Compare(a.Name, b.Name) })
	return merged
}

// mergeSeeds is the distributed seed selection: every shard ranks its own
// candidate pool (the ranked form of its candidates endpoint: its lazy-greedy
// picks in order, each with its marginal gain, no influence sets) and the
// router merges the rankings. User partitioning makes shard influence
// universes disjoint, so a pick on one shard changes no marginal gain on
// another, and greedy over the union of the pools is exactly the merge of
// the shards' own greedy sequences by (gain descending, user ascending) —
// the order each sequence already has. Value is the sum of the merged gains:
// the exact coverage of the selection in the partitioned universe.
//
// Name-mode shards — told apart by their candidates, every one of which
// carries its name — number users independently, so there a tie between
// shards goes to the lower shard index instead of the lower user ID, Seeds
// carries each seed's ID on its own shard, and Names is the identity.
func mergeSeeds(h head, parts []api.CandidatesResponse) api.SeedsResponse {
	out := api.SeedsResponse{Seeds: []sim.UserID{}, WindowStart: h.WindowStart, Processed: h.Processed, Partial: h.Partial}
	k := 0
	ranks := make([][]api.CandidateSeed, len(parts)) // each shard's picks not merged yet
	for i, p := range parts {
		k = max(k, p.K)
		ranks[i] = p.Candidates
	}
	for len(out.Seeds) < k {
		best := -1
		for i, rank := range ranks {
			if len(rank) == 0 {
				continue
			}
			if best < 0 || rank[0].Gain > ranks[best][0].Gain ||
				(rank[0].Name == "" && rank[0].Gain == ranks[best][0].Gain && rank[0].User < ranks[best][0].User) {
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
		if pick.Name != "" {
			out.Names = append(out.Names, pick.Name)
		}
	}
	return out
}

// mergeCandidates is the merged candidate pool: the concatenation of the
// shard pools (disjoint universes — no dedup needed), K as the fleet's
// budget, Value as the additive sum of shard-local objectives.
func mergeCandidates(h head, parts []api.CandidatesResponse) api.CandidatesResponse {
	merged := api.CandidatesResponse{
		Candidates: []api.CandidateSeed{}, WindowStart: h.WindowStart, Processed: h.Processed, Partial: h.Partial,
	}
	for _, p := range parts {
		merged.K = max(merged.K, p.K)
		merged.Value += p.Value
		merged.Candidates = append(merged.Candidates, p.Candidates...)
	}
	return merged
}

// mergeValue sums the shard objectives: shard influence universes are
// disjoint, so the sum never double counts — the merge is exact, not a
// bound (see ARCHITECTURE.md "Cluster topology").
func mergeValue(h head, parts []api.ValueResponse) api.ValueResponse {
	out := api.ValueResponse{Processed: h.Processed, Partial: h.Partial}
	for _, p := range parts {
		out.Value += p.Value
	}
	return out
}

// mergeWindow reports the merged window: the oldest window start any shard
// still covers, with the cluster-total processed count — the head itself.
func mergeWindow(h head, _ []api.WindowResponse) api.WindowResponse {
	return api.WindowResponse{WindowStart: h.WindowStart, Processed: h.Processed, Partial: h.Partial}
}

// mergeCheckpoints merges checkpoint ledgers by start ID: starts union
// (sorted ascending, as a single server reports them), values summing
// where shards share a start — exact for the same disjoint-universe
// reason as /value.
func mergeCheckpoints(h head, parts []api.CheckpointsResponse) api.CheckpointsResponse {
	byStart := make(map[sim.ActionID]float64)
	for _, p := range parts {
		for j, start := range p.Starts {
			v := 0.0
			if j < len(p.Values) {
				v = p.Values[j]
			}
			byStart[start] += v
		}
	}
	out := api.CheckpointsResponse{
		Checkpoints: len(byStart),
		Starts:      make([]sim.ActionID, 0, len(byStart)),
		Values:      make([]float64, 0, len(byStart)),
		Partial:     h.Partial,
	}
	for start := range byStart {
		out.Starts = append(out.Starts, start)
	}
	slices.Sort(out.Starts)
	for _, start := range out.Starts {
		out.Values = append(out.Values, byStart[start])
	}
	return out
}

// mergeStats sums the shard counters. Processed, ElementsFed, queue
// depths and checkpoint totals add; AvgCheckpoints is the processed-
// weighted mean so the cluster figure matches what one tracker over the
// union stream would report for the same per-action checkpoint counts.
func mergeStats(h head, parts []api.StatsResponse) api.StatsResponse {
	out := api.StatsResponse{Partial: h.Partial}
	out.Stats.Framework, out.Stats.Oracle = parts[0].Stats.Framework, parts[0].Stats.Oracle
	out.Stats.Processed = h.Processed
	var weighted float64
	for _, p := range parts {
		out.Stats.Checkpoints += p.Stats.Checkpoints
		out.Stats.ElementsFed += p.Stats.ElementsFed
		weighted += p.Stats.AvgCheckpoints * float64(p.Stats.Processed)
		out.CheckpointsCreated += p.CheckpointsCreated
		out.CheckpointsDeleted += p.CheckpointsDeleted
		out.QueueDepth += p.QueueDepth
		out.QueueCapacity += p.QueueCapacity
	}
	if h.Processed > 0 {
		out.Stats.AvgCheckpoints = weighted / float64(h.Processed)
	}
	return out
}

// mergeQuery concatenates the shards' row streams in shard order; handleQuery
// re-applies the plan's trailing operators and the row limit to the result.
func mergeQuery(h head, parts []api.QueryResponse) api.QueryResponse {
	out := api.QueryResponse{Columns: parts[0].Columns, Processed: h.Processed, WindowStart: h.WindowStart, Partial: h.Partial}
	for _, p := range parts {
		out.Rows = append(out.Rows, p.Rows...)
		out.Truncated = out.Truncated || p.Truncated
	}
	return out
}

// spec resolves the spec of the tracker a request names, consulting the
// cache first and then the shard fleet's /v1/trackers (any healthy shard will
// do: the fleet is homogeneously configured). The spec drives the routing
// decision the router cannot infer from a request alone: whether the tracker
// is name-mode (hash raw names) or numeric (hash IDs). Shards marked down are
// asked only when no other shard is, the way handleClusterHealth probes
// them: a down shard is no evidence that the tracker is unknown. When the
// spec cannot be had the answer is the last asked shard's own error, 503 for
// a shard that could not be reached; 404 means a shard answered and the
// fleet does not know the name. ok=false means that response is already
// written.
func (rt *Router) spec(w http.ResponseWriter, r *http.Request) (name string, sp api.Spec, ok bool) {
	name = r.PathValue("name")
	cached := func() bool {
		rt.mu.RLock()
		defer rt.mu.RUnlock()
		sp, ok = rt.specs[name]
		return ok
	}
	if cached() {
		return name, sp, true
	}
	unknown := &api.Error{Code: http.StatusNotFound, Message: fmt.Sprintf("unknown tracker %q", name)}
	fail := unknown
	ask := make([]int, 0, len(rt.shards)) // the healthy shards; every shard when none is
	for i, s := range rt.shards {
		if !s.isDown() {
			ask = append(ask, i)
		}
	}
	if len(ask) == 0 {
		for i := range rt.shards {
			ask = append(ask, i)
		}
	}
	for _, i := range ask {
		s := rt.shards[i]
		resp, err := s.client.List(r.Context())
		if err == nil {
			s.markUp()
			rt.note(name, i, &resp)
			if cached() {
				return name, sp, true
			}
			fail = unknown
			break
		}
		s.noteErr(err)
		if !errors.As(err, &fail) {
			fail = &api.Error{Code: http.StatusServiceUnavailable, Message: fmt.Sprintf("resolving tracker %q: %v", name, err)}
		}
	}
	fail.Write(w)
	return name, sp, false
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
	api.WriteJSON(w, http.StatusOK, resp)
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
	name, sp, ok := rt.spec(w, r)
	if !ok {
		return
	}
	body := http.MaxBytesReader(w, r.Body, rt.opts.MaxBodyBytes)
	n := len(rt.shards)
	numParts := make([][]sim.Action, n)
	nameParts := make([][]api.NamedAction, n)
	total := 0
	var err error
	if sp.Names {
		err = dataio.ReadNDJSONNamed(body, func(a api.NamedAction) bool {
			i := rt.ring.ShardForName(a.User)
			nameParts[i] = append(nameParts[i], a)
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
			api.WriteError(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", tooLarge.Limit)
			return
		}
		api.WriteError(w, http.StatusBadRequest, "%v", err)
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
		fail := &api.Error{Code: http.StatusServiceUnavailable, Message: failErr.Error()}
		var apiErr *api.Error
		if errors.As(failErr, &apiErr) {
			fail.Code, fail.Message = apiErr.Code, apiErr.Message
		}
		if fail.Temporary() {
			fail.RetryAfter = time.Second
		}
		fail.Message = fmt.Sprintf("shards %v failed (%s); shards %v applied their sub-batches", failedOwners, fail.Message, applied)
		fail.Write(w)
		return
	}
	api.WriteJSON(w, http.StatusOK, api.IngestResponse{Accepted: total, Processed: sum})
}

// handleInfluence routes to the single shard that owns the user: all of a
// user's actions (and so their entire influence set) live on their ring
// shard, so this read needs no merge at all. A down owner is a plain 503 —
// there is no partial answer to a single-owner read.
func (rt *Router) handleInfluence(w http.ResponseWriter, r *http.Request) {
	name, sp, ok := rt.spec(w, r)
	if !ok {
		return
	}
	user := r.URL.Query().Get("user")
	var idx int
	if sp.Names {
		if user == "" {
			api.WriteError(w, http.StatusBadRequest, "missing user parameter")
			return
		}
		idx = rt.ring.ShardForName(user)
	} else {
		u64, perr := strconv.ParseUint(user, 10, 32)
		if perr != nil {
			api.WriteError(w, http.StatusBadRequest, "bad or missing user parameter %q", user)
			return
		}
		idx = rt.ring.ShardForID(sim.UserID(u64))
	}
	s := rt.shards[idx]
	if s.isDown() {
		api.WriteError(w, http.StatusServiceUnavailable, "shard %s owning user %q is down", s.addr, user)
		return
	}
	resp, err := s.client.Influence(r.Context(), name, user)
	if err != nil {
		s.noteErr(err)
		var apiErr *api.Error
		if errors.As(err, &apiErr) {
			apiErr.Write(w)
			return
		}
		api.WriteError(w, http.StatusServiceUnavailable, "shard %s: %v", s.addr, err)
		return
	}
	api.WriteJSON(w, http.StatusOK, resp)
}

// handleQuery pushes the plan down to every shard unchanged and merges the
// row streams in shard order. Order- and cardinality-sensitive trailing
// operators (topk, limit) are re-applied router-side on the merged stream:
// a per-shard topk keeps each shard's local top K, so the union is a
// superset of the global top K and one more topk yields exactly the
// single-server answer. A topk buried mid-plan (followed by joins or
// filters) cannot be re-applied after the fact; the merged result is then
// the union of per-shard answers, which is the documented pushdown
// semantics.
func (rt *Router) handleQuery(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	req, limit, ok := api.DecodeQuery(w, r)
	if !ok {
		return
	}
	parts, h, ok := ask(rt, w, name, func(c *api.Client) (api.QueryResponse, error) {
		return c.Query(r.Context(), name, req)
	})
	if !ok {
		return
	}
	out := mergeQuery(h, parts)
	rows, truncated, err := reapplyTrailing(req.Plan.Ops, out.Columns, out.Rows, limit)
	if err != nil {
		// Every shard compiled these operators against these columns.
		api.WriteError(w, http.StatusInternalServerError, "re-applying the plan to the merged rows: %v", err)
		return
	}
	out.Rows, out.Truncated = rows, out.Truncated || truncated
	writeMerged(w, h.Partial, out)
}

// reapplyTrailing re-runs the plan's trailing topk/limit operators — the
// query package's own, whose topk is stable on input order — on the merged
// rows and cuts the result to limit rows. Only the trailing run is sound to
// replay: an operator sandwiched between others already had its output
// transformed per-shard.
func reapplyTrailing(ops []query.Op, columns []string, rows []query.Row, limit int) ([]query.Row, bool, error) {
	start := len(ops)
	for start > 0 && (ops[start-1].Op == "topk" || ops[start-1].Op == "limit") {
		start--
	}
	rel, err := (&query.Plan{Ops: ops[start:]}).Over(query.Rows(columns, rows), query.Env{})
	if err != nil {
		return nil, false, err
	}
	rows, truncated := query.Collect(rel, limit)
	if rows == nil {
		rows = []query.Row{}
	}
	return rows, truncated, nil
}

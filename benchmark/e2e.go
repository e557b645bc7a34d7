package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/api"
	"repro/internal/stream"
	"repro/query"
	"repro/sim"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOpts is everything one end-to-end run needs besides the workload.
type runOpts struct {
	binDir  string  // directory holding the simserve and simrouter binaries
	workDir string  // parent of the per-run data directories
	seed    int64   // stream seed
	seconds float64 // length of the measured phase
	setups  int     // how many times to set up (setup_s is the median)
	probes  bool    // run the machine probes (calibration kernel, fsync)
}

// e2eResult is what a run reports.
type e2eResult struct {
	metrics   map[string]metric
	attempted int
	failed    int
	gates     []string // violated correctness gates, empty when all green
}

func (r *e2eResult) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// gate records a violated correctness gate; the operation it judged counts
// as failed.
func (r *e2eResult) gate(format string, args ...any) {
	r.gates = append(r.gates, fmt.Sprintf(format, args...))
	r.failed++
}

// topkPlan is the fixed /query plan: influence ⋈ seeds → topk(influence, 10).
var topkPlan = api.QueryRequest{Plan: query.Plan{
	Scan: "influence",
	Ops: []query.Op{
		{Op: "join", On: "seed", Right: &query.Plan{Scan: "seeds"}, RightOn: "user"},
		{Op: "topk", Col: "influence", K: 10, Desc: true},
	},
}}

// newConn returns an API client that owns exactly one connection.
func newConn(baseURL string) *api.Client {
	c := api.NewClient(baseURL)
	c.HTTPClient = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, IdleConnTimeout: time.Minute,
	}}
	return c
}

// ingester sends the generated stream, in order, over one connection and
// checks every acknowledgement.
type ingester struct {
	w       workload
	c       *api.Client
	actions []stream.Action
	next    int // index of the first unsent action
}

// send POSTs the next n actions as one batch. The ack must report exactly n
// accepted and a lifetime processed count equal to everything sent so far
// (summed across shards behind a router); anything else is a wrong answer.
func (in *ingester) send(ctx context.Context, n int) error {
	batch := in.actions[in.next : in.next+n]
	var resp api.IngestResponse
	var err error
	if in.w.names {
		named := make([]api.NamedAction, len(batch))
		for i, a := range batch {
			named[i] = api.NamedAction{ID: a.ID, User: userName(a.User), Parent: a.Parent}
		}
		resp, err = in.c.IngestNamed(ctx, tracker, named)
	} else {
		resp, err = in.c.Ingest(ctx, tracker, batch)
	}
	if err != nil {
		return err
	}
	in.next += n
	if resp.Accepted != n || resp.Processed != int64(in.next) {
		return fmt.Errorf("ack says accepted=%d processed=%d, want %d and %d", resp.Accepted, resp.Processed, n, in.next)
	}
	return nil
}

// sendAll sends count actions in batches of size, stopping at the first error.
func (in *ingester) sendAll(ctx context.Context, count, size int) error {
	for count > 0 {
		n := min(size, count)
		if err := in.send(ctx, n); err != nil {
			return err
		}
		count -= n
	}
	return nil
}

// setUp creates a fresh data dir, launches the fleet on it, waits for it to
// be healthy and preloads it, returning how long that took.
func setUp(ctx context.Context, w workload, o runOpts, actions []stream.Action) (*fleet, *ingester, time.Duration, error) {
	dir, err := os.MkdirTemp(o.workDir, "run-"+w.name+"-")
	if err != nil {
		return nil, nil, 0, err
	}
	f, err := newFleet(w, o.binDir, dir)
	if err != nil {
		return nil, nil, 0, err
	}
	began := time.Now()
	if err := f.startAll(ctx); err != nil {
		return f, nil, 0, err
	}
	in := &ingester{w: w, c: newConn(f.frontURL()), actions: actions}
	if err := in.sendAll(ctx, w.preload(), preloadBatch); err != nil {
		return f, nil, 0, fmt.Errorf("preload: %w", err)
	}
	return f, in, time.Since(began), nil
}

// tearDown kills the fleet and removes its directory.
func tearDown(f *fleet) {
	if f == nil {
		return
	}
	f.killAll()
	_ = os.RemoveAll(f.dir) // scratch under the work dir; a leftover is harmless
}

// readKind is what the reader asks on tick i: /seeds and /query alternate
// (each at readRate); every tenth query slot asks /influence for a current
// seed instead — the one read served on the ingest loop, not off the
// published snapshot.
type readKind int

const (
	readSeeds readKind = iota
	readQuery
	readInfluence
)

func readKindOf(i int) readKind {
	switch {
	case i%2 == 0:
		return readSeeds
	case i%20 == 19:
		return readInfluence
	default:
		return readQuery
	}
}

// readerStats is what the reader observed: one open loop's samples plus the
// reasons for any answer it judged wrong (already counted in loop.errs).
type readerStats struct {
	loop  loopResult
	wrong []string
}

// latencies returns the latencies (ms) of the successful reads of one kind.
func (rs readerStats) latencies(kind readKind) []float64 {
	var out []time.Duration
	for j, i := range rs.loop.idx {
		if readKindOf(i) == kind {
			out = append(out, rs.loop.lat[j])
		}
	}
	return ms(out)
}

// runReader issues reads on a fixed schedule over its own connection and
// checks each answer, until loopCtx is done; a read in flight at that moment
// completes under ctx and is counted.
func runReader(ctx, loopCtx context.Context, w workload, c *api.Client, start time.Time, minProcessed int64) readerStats {
	var rs readerStats
	lastProcessed := minProcessed
	seedUser := ""
	wrong := func(format string, args ...any) error {
		rs.wrong = append(rs.wrong, fmt.Sprintf(format, args...))
		return fmt.Errorf("wrong answer")
	}
	period := time.Duration(float64(time.Second) / (2 * readRate))
	rs.loop = openLoop(loopCtx, start, period, math.MaxInt, func(i int) error {
		kind := readKindOf(i)
		if kind == readInfluence && seedUser == "" {
			kind = readQuery
		}
		switch kind {
		case readSeeds:
			resp, err := c.Seeds(ctx, tracker)
			if err != nil {
				return err
			}
			if resp.Partial || len(resp.Seeds) > w.k || resp.Processed < lastProcessed {
				return wrong("/seeds: partial=%v seeds=%d processed=%d (last %d)",
					resp.Partial, len(resp.Seeds), resp.Processed, lastProcessed)
			}
			lastProcessed = resp.Processed
			if len(resp.Seeds) > 0 {
				if w.names {
					seedUser = resp.Names[0]
				} else {
					seedUser = strconv.FormatUint(uint64(resp.Seeds[0]), 10)
				}
			}
		case readInfluence:
			resp, err := c.Influence(ctx, tracker, seedUser)
			if err != nil {
				return err
			}
			if resp.Count != len(resp.Influenced) {
				return wrong("/influence: count=%d but %d users", resp.Count, len(resp.Influenced))
			}
		case readQuery:
			resp, err := c.Query(ctx, tracker, topkPlan)
			if err != nil {
				return err
			}
			if msg := checkTopK(resp); msg != "" {
				return wrong("/query: %s", msg)
			}
		}
		return nil
	}, nil)
	return rs
}

// checkTopK validates the fixed plan's answer: at most 10 rows, ordered by
// descending influence, complete. It returns "" when the answer is right.
func checkTopK(resp api.QueryResponse) string {
	col := -1
	for i, c := range resp.Columns {
		if c == "influence" {
			col = i
		}
	}
	switch {
	case resp.Partial:
		return "partial answer"
	case col < 0:
		return fmt.Sprintf("no influence column in %v", resp.Columns)
	case len(resp.Rows) > 10:
		return fmt.Sprintf("%d rows from topk 10", len(resp.Rows))
	}
	for i := 1; i < len(resp.Rows); i++ {
		if resp.Rows[i-1][col].Compare(resp.Rows[i][col]) < 0 {
			return fmt.Sprintf("row %d out of order", i)
		}
	}
	return ""
}

// answers is the triple of reads a recovery must reproduce byte for byte.
type answers struct {
	seeds       api.SeedsResponse
	checkpoints api.CheckpointsResponse
	canonical   []byte // JSON of seeds, value and checkpoints, for comparison
}

// answeringStart is the start of the checkpoint that answers /seeds: the
// oldest one covering no more than the last window actions (internal/core).
func (a answers) answeringStart(window int) (sim.ActionID, bool) {
	ws := sim.ActionID(a.seeds.Processed) - sim.ActionID(window) + 1 // IDs are 1..processed
	for _, s := range a.checkpoints.Starts {
		if s >= ws {
			return s, true
		}
	}
	return 0, false
}

func fetchAnswers(ctx context.Context, c *api.Client) (answers, error) {
	var a answers
	var err error
	if a.seeds, err = c.Seeds(ctx, tracker); err != nil {
		return a, err
	}
	value, err := c.Value(ctx, tracker)
	if err != nil {
		return a, err
	}
	if a.checkpoints, err = c.Checkpoints(ctx, tracker); err != nil {
		return a, err
	}
	a.canonical, err = json.Marshal([]any{a.seeds, value, a.checkpoints})
	return a, err
}

// copyDir copies the tree under src to dst, which must not exist yet.
func copyDir(src, dst string) error { return os.CopyFS(dst, os.DirFS(src)) }

// dirBytes sums the sizes of the regular files under root.
func dirBytes(root string) int64 {
	var total int64
	_ = filepath.WalkDir(root, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, ierr := d.Info(); ierr == nil {
				total += info.Size()
			}
		}
		return nil // files vanish under a live server; count what is there
	})
	return total
}

// e2eRun is the state of one end-to-end run in progress.
type e2eRun struct {
	ctx     context.Context
	w       workload
	o       runOpts
	res     *e2eResult
	actions []stream.Action
	f       *fleet    // the fleet being measured
	in      *ingester // its ingesting connection, also used for admin reads
	// samples are the /seeds answers read right after an ack during the
	// measured phase: each is the served solution at an exactly known
	// processed count, judged by the referee once the phase is over.
	samples []api.SeedsResponse
}

// runE2E performs one complete end-to-end run of w and returns every
// metric it measured. Servers are always killed and reaped before it
// returns, whatever happens.
func runE2E(ctx context.Context, w workload, o runOpts) (*e2eResult, error) {
	r := &e2eRun{ctx: ctx, w: w, o: o, res: &e2eResult{metrics: map[string]metric{}}}
	defer func() { tearDown(r.f) }()
	err := r.run()
	if err != nil && r.f != nil {
		err = fmt.Errorf("%w\n%s", err, r.f.logTails())
	}
	return r.res, err
}

func (r *e2eRun) run() error {
	res, w := r.res, r.w
	genBegan := time.Now()
	r.actions = w.generate(r.o.seed, r.o.seconds)
	res.set("client.gen_s", time.Since(genBegan).Seconds(), "s")

	// Set up o.setups times; the last fleet is the one measured.
	var setupS []float64
	for i := 0; i < r.o.setups; i++ {
		tearDown(r.f)
		var d time.Duration
		var err error
		if r.f, r.in, d, err = setUp(r.ctx, w, r.o, r.actions); err != nil {
			return err
		}
		setupS = append(setupS, d.Seconds())
	}
	res.set("setup_s", median(setupS), "s")
	res.set("client.preload_s", setupS[len(setupS)-1], "s")
	res.attempted += (w.preload() + preloadBatch - 1) / preloadBatch

	if r.o.probes {
		us, fstype, err := fsyncProbe(r.f.dir)
		if err != nil {
			return err
		}
		logf("data dir %s is on %s; 4 KiB append+fsync median %.0f us", r.f.dir, fstype, us)
		res.set("client.fsync_probe_us", us, "us")
		res.set("client.calib_ms_before", calibrate(5), "ms")
	}
	if err := r.measure(); err != nil {
		return err
	}
	if r.o.probes {
		res.set("client.calib_ms_after", calibrate(5), "ms")
	}
	if err := r.serverCounters(); err != nil {
		return err
	}
	served, snap, err := r.recover()
	if err != nil {
		return err
	}
	res.attempted++
	ratio, err := judgeSeeds(w, r.actions, r.samples, served, snap, res)
	if err != nil {
		return err
	}
	res.set("seed_value_ratio", ratio, "ratio")
	res.set("client.ops_attempted", float64(res.attempted), "count")
	res.set("client.ops_failed", float64(res.failed), "count")
	return nil
}

// measure is the measured phase: the ingester sends its fixed number of
// batches while the reader reads alongside for exactly as long, bracketed by
// CPU, memory and disk readings of the servers.
func (r *e2eRun) measure() error {
	ctx, w, res, in, f := r.ctx, r.w, r.res, r.in, r.f
	preloaded := int64(in.next)
	diskBefore := dirBytes(f.dir)
	cpuBefore := make([]float64, len(f.procs()))
	for i, p := range f.procs() {
		var err error
		if cpuBefore[i], err = p.cpuSeconds(); err != nil {
			return err
		}
	}
	reader := newConn(f.frontURL())
	var rs readerStats
	var ing loopResult
	readerCtx, stopReader := context.WithCancel(ctx)
	defer stopReader()
	began := time.Now()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rs = runReader(ctx, readerCtx, w, reader, began, preloaded)
	}()
	// freshCheck: a read issued right after an ack must already see the
	// batch. Sampled freshSamples times per phase at fixed batch indices, on
	// the ingester's own connection, outside the ack's timing; the answers
	// are kept for the referee.
	n := w.measuredBatches(r.o.seconds)
	every := max(n/freshSamples, 1)
	freshCheck := func(i int) {
		if i%every != every-1 {
			return
		}
		res.attempted++
		s, err := in.c.Seeds(ctx, tracker)
		switch {
		case err != nil:
			res.failed++
		case s.Processed != int64(in.next):
			res.gate("after the ack of action %d, /seeds reports processed=%d", in.next, s.Processed)
		default:
			r.samples = append(r.samples, s)
		}
	}
	send := func(int) error { return in.send(ctx, w.batch) }
	if w.rate > 0 {
		period := time.Duration(float64(time.Second) / w.rate)
		ing = openLoop(ctx, began, period, n, send, freshCheck)
	} else {
		ing = closedLoop(ctx, n, send, freshCheck)
	}
	ingestWall := time.Since(began)
	stopReader()
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	acked := int64(in.next) - preloaded
	if acked <= 0 {
		return fmt.Errorf("no batch was acknowledged during the measured phase")
	}
	perAction := func(x float64) float64 { return x / float64(acked) }

	var cpuShards, cpuRouter, rssTotal float64
	for i, p := range f.procs() {
		cpu, err := p.cpuSeconds()
		if err != nil {
			return err
		}
		rss, err := p.peakRSSMB()
		if err != nil {
			return err
		}
		rssTotal += rss
		if p == f.router {
			cpuRouter = cpu - cpuBefore[i]
		} else {
			cpuShards += cpu - cpuBefore[i]
		}
	}
	diskGrowth := float64(dirBytes(f.dir) - diskBefore)

	res.attempted += ing.calls + rs.loop.calls
	res.failed += ing.errs + rs.loop.errs
	res.gates = append(res.gates, rs.wrong...) // already counted as failed reads

	res.set("ingest_actions_per_s", float64(acked)/ingestWall.Seconds(), "1/s")
	res.set("ingest_ack_ms_p50", median(ms(ing.lat)), "ms")
	res.set("seeds_ms_p50", median(rs.latencies(readSeeds)), "ms")
	res.set("query_ms_p50", median(rs.latencies(readQuery)), "ms")
	res.set("cpu_us_per_action", perAction((cpuShards+cpuRouter)*1e6), "us")
	res.set("peak_rss_mb", rssTotal, "MB")

	setTail := func(name string, lat []float64) {
		pct, v := tail(lat)
		res.set("client."+name+"_ms_tail", v, "ms")
		res.set("client."+name+"_tail_pct", pct, "%")
		res.set("client."+name+"_samples", float64(len(lat)), "count")
	}
	setTail("ingest_ack", ms(ing.lat))
	setTail("seeds", rs.latencies(readSeeds))
	setTail("query", rs.latencies(readQuery))
	res.set("client.influence_ms_p50", median(rs.latencies(readInfluence)), "ms")
	_, lag := tail(ms(append(rs.loop.late, ing.late...)))
	res.set("client.gen_lag_ms_tail", lag, "ms")
	res.set("client.measured_actions", float64(acked), "count")
	res.set("server.cpu_us_per_action", perAction(cpuShards*1e6), "us")
	res.set("router.cpu_us_per_action", perAction(cpuRouter*1e6), "us")
	res.set("server.disk_bytes_per_action", perAction(diskGrowth), "B")
	return nil
}

// shardMetrics fetches every shard's tracker metrics, directly.
func (r *e2eRun) shardMetrics() ([]api.TrackerMetricsResponse, error) {
	var out []api.TrackerMetricsResponse
	for _, p := range r.f.shards {
		m, err := api.NewClient("http://"+p.addr).TrackerMetrics(r.ctx, tracker)
		if err != nil {
			return nil, fmt.Errorf("%s /metrics: %w", p.name, err)
		}
		out = append(out, m)
	}
	return out, nil
}

// serverCounters reads the counters the servers export at phase end, summed
// over shards, and checks that everything acknowledged was processed.
func (r *e2eRun) serverCounters() error {
	res := r.res
	res.attempted += 1 + len(r.f.shards)
	stats, err := r.in.c.Stats(r.ctx, tracker)
	if err != nil {
		return fmt.Errorf("/stats: %w", err)
	}
	if stats.Stats.Processed != int64(r.in.next) {
		res.gate("final processed = %d, but %d actions were acknowledged", stats.Stats.Processed, r.in.next)
	}
	res.set("core.elements_fed_per_action", float64(stats.Stats.ElementsFed)/float64(stats.Stats.Processed), "count")
	// The router sums avg_checkpoints over shards; report the per-shard mean.
	res.set("core.checkpoints_avg", stats.Stats.AvgCheckpoints/float64(max(r.w.shards, 1)), "count")
	shards, err := r.shardMetrics()
	if err != nil {
		return err
	}
	var queueHighWater int64
	var sum api.TrackerMetricsResponse
	for _, m := range shards {
		queueHighWater = max(queueHighWater, m.QueueDepthHighWater)
		sum.ShedRequests += m.ShedRequests
		sum.SnapshotRetries += m.SnapshotRetries
		sum.HotLogBytes += m.HotLogBytes
		sum.ColdLogBytes += m.ColdLogBytes
		sum.Spills += m.Spills
		sum.ColdFaults += m.ColdFaults
		sum.ColdSegments += m.ColdSegments
	}
	res.set("server.queue_high_water", float64(queueHighWater), "count")
	res.set("server.shed_requests", float64(sum.ShedRequests), "count")
	res.set("server.snapshot_retries", float64(sum.SnapshotRetries), "count")
	res.set("stream.hot_log_bytes", float64(sum.HotLogBytes), "B")
	res.set("stream.cold_log_bytes", float64(sum.ColdLogBytes), "B")
	res.set("stream.spills", float64(sum.Spills), "count")
	res.set("stream.cold_faults", float64(sum.ColdFaults), "count")
	res.set("dataio.cold_segments", float64(sum.ColdSegments), "count")
	return nil
}

// recover times crash recovery and checks that a recovered server answers
// exactly as the uninterrupted one did. It returns those uninterrupted
// answers (and, from a single server, the full snapshot) for the referee.
//
// A graceful restart comes first: SIGTERM drains and writes a final
// snapshot, so the WAL a crash recovery replays is exactly the w.tail
// actions ingested after it — the same work on every run and seed, not
// wherever the phase happened to end between two snapshots. Then the servers
// are crashed once, and every cycle recovers from a pristine copy of that
// crashed state: identical work each time, and no cycle inherits what an
// earlier recovery left behind.
func (r *e2eRun) recover() (answers, *sim.Snapshot, error) {
	ctx, w, res, f := r.ctx, r.w, r.res, r.f
	admin := r.in.c
	f.stopShards(syscall.SIGTERM)
	if err := f.restartShards(ctx); err != nil {
		return answers{}, nil, fmt.Errorf("graceful restart: %w", err)
	}
	res.attempted += (w.tail + w.batch - 1) / w.batch
	if err := r.in.sendAll(ctx, w.tail, w.batch); err != nil {
		return answers{}, nil, fmt.Errorf("recovery tail: %w", err)
	}
	before, err := fetchAnswers(ctx, admin)
	if err != nil {
		return before, nil, err
	}
	var snap *sim.Snapshot
	if w.shards == 0 { // the router does not serve the full snapshot
		s, err := admin.Snapshot(ctx, tracker)
		if err != nil {
			return before, nil, err
		}
		snap = &s
	}
	f.stopShards(syscall.SIGKILL)
	for i := range f.shards {
		if err := copyDir(f.dataDir(i), f.dataDir(i)+".crashed"); err != nil {
			return before, nil, err
		}
	}
	var recoveryS []float64
	replayed := 0
	for cycle := 0; cycle < recoveryCycles; cycle++ {
		for i := range f.shards {
			err := os.RemoveAll(f.dataDir(i))
			if err == nil {
				err = copyDir(f.dataDir(i)+".crashed", f.dataDir(i))
			}
			if err != nil {
				return before, nil, err
			}
		}
		began := time.Now()
		if err := f.restartShards(ctx); err != nil {
			return before, nil, fmt.Errorf("recovery cycle %d: %w", cycle, err)
		}
		recoveryS = append(recoveryS, time.Since(began).Seconds())
		res.attempted++
		after, err := fetchAnswers(ctx, admin)
		if err != nil {
			return before, nil, err
		}
		if !bytes.Equal(before.canonical, after.canonical) {
			res.gate("recovery cycle %d: answers differ from the uninterrupted ones:\n  before %s\n  after  %s",
				cycle, before.canonical, after.canonical)
		}
		shards, err := r.shardMetrics()
		if err != nil {
			return before, nil, err
		}
		replayed = 0
		for _, m := range shards {
			replayed += m.RecoveredWALActions
		}
		if replayed != w.tail {
			res.gate("recovery cycle %d replayed %d WAL actions, want the %d-action tail", cycle, replayed, w.tail)
		}
		f.stopShards(syscall.SIGKILL)
	}
	logf("recovery cycles: %.3f s", recoveryS)
	res.set(recoveryMetric, median(recoveryS), "s")
	res.set("server.recovered_wal_actions", float64(replayed), "count")
	return before, snap, nil
}

// servedSeeds returns the seed users of a /seeds answer in the generated
// stream's own IDs. On a name-mode tracker the server's dense IDs are its
// intern order; the names are the identity.
func servedSeeds(w workload, resp api.SeedsResponse) ([]sim.UserID, error) {
	if !w.names {
		return resp.Seeds, nil
	}
	seeds := make([]sim.UserID, len(resp.Names))
	for i, name := range resp.Names {
		u, err := strconv.ParseUint(strings.TrimPrefix(name, "u"), 10, 32)
		if err != nil {
			return nil, fmt.Errorf("served seed name %q is not one the client sent", name)
		}
		seeds[i] = sim.UserID(u)
	}
	return seeds, nil
}

// judgeSeeds is the referee. Every sampled /seeds answer (those read right
// after an ack during the measured phase, and the final pre-crash one) is
// evaluated against the lazy-greedy reference on the benchmark's own index
// over the evalWindow actions that answer had seen; seed_value_ratio is the
// mean of f(served)/f(greedy) over the samples — one window's ratio moves by
// a few percent from seed to seed, the mean of a dozen far less — and every
// single sample must clear the paper's guarantee.
//
// The final answer's served value is checked too. It is the answering
// checkpoint's oracle value: the coverage of the seeds over the suffix that
// starts at that checkpoint, in the server's index — which also remembers
// reply chains through actions older than the window as long as a live
// descendant pins them. The referee's index starts at the window, so its
// coverage of the same seeds over the same suffix is a lower bound; the
// union of the influence sets the server itself publishes for the (longer)
// window suffix is an upper bound. A served value outside that sandwich is
// wrong. Behind a router the merged value is re-scored over shard-local sets
// that reply chains crossing shards do not reach, so only the ratio gate
// applies there.
func judgeSeeds(w workload, actions []stream.Action, samples []api.SeedsResponse, served answers, snap *sim.Snapshot, res *e2eResult) (float64, error) {
	// The paper's SIC guarantee with a (1/2−β) sieve oracle is ε(1−β)/2; a
	// two-round merge over partitions keeps at least 3/4 of it (the band
	// internal/router's cluster suite asserts).
	floor := (0.5 - w.beta) * (1 - w.beta) / 2
	if w.shards > 0 {
		floor *= 0.75
	}
	var ev *evaluator
	var seeds []sim.UserID
	var start sim.ActionID
	var ratios []float64
	for _, resp := range append(slices.Clip(samples), served.seeds) {
		acked := actions[:resp.Processed]
		window := acked[len(acked)-min(w.evalWindow(), len(acked)):]
		var err error
		if ev, err = newEvaluator(window); err != nil {
			return 0, err
		}
		if seeds, err = servedSeeds(w, resp); err != nil {
			return 0, err
		}
		start = window[0].ID
		servedValue := ev.coverage(seeds, start)
		_, greedyValue := ev.greedy(w.k, start)
		if greedyValue <= 0 {
			return 0, fmt.Errorf("reference greedy found no influence in the %d actions before %d", len(window), resp.Processed)
		}
		ratio := servedValue / greedyValue
		if ratio < floor {
			res.gate("at processed=%d the served seeds cover %.0f of the greedy %.0f: ratio %.4f is below the guarantee %.4f",
				resp.Processed, servedValue, greedyValue, ratio, floor)
		}
		ratios = append(ratios, ratio)
	}
	var sum float64
	for _, x := range ratios {
		sum += x
	}
	mean := sum / float64(len(ratios))
	logf("referee: f(served)/f(greedy) at %d instants: %.3f, mean %.4f", len(ratios), ratios, mean)

	// ev, seeds and start are now those of the final answer.
	if snap != nil {
		x1, ok := served.answeringStart(w.window)
		if !ok {
			res.gate("no live checkpoint starts inside the window: %v", served.checkpoints.Starts)
			return mean, nil
		}
		lower := ev.coverage(seeds, x1)
		union := map[sim.UserID]struct{}{}
		for _, si := range snap.SeedInfluence {
			for _, v := range si.Influenced {
				union[v] = struct{}{}
			}
		}
		upper := float64(len(union))
		logf("referee: served value %.0f, recomputed bounds [%.0f, %.0f] (answering checkpoint starts at %d)", served.seeds.Value, lower, upper, x1)
		if snap.Processed != served.seeds.Processed || served.seeds.Value < lower || served.seeds.Value > upper {
			res.gate("served value %.0f at processed=%d is outside the recomputed bounds [%.0f, %.0f] (snapshot at %d)",
				served.seeds.Value, served.seeds.Processed, lower, upper, snap.Processed)
		}
	}
	return mean, nil
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/api"
	"repro/intern"
	"repro/internal/dataio"
	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/stream"
	"repro/query"
	"repro/sim"
)

// The layer ladder. This change may not edit program code, so the layers are
// timed from outside: the same warm-up and the same measured batches are
// replayed in-process through each layer's public entry point, and a
// layer's self time is its rung minus the rung below it:
//
//	stream.Stream.Ingest + Advance         the window index alone
//	sim.Tracker.ProcessAll                 + core and oracle (also at Parallelism 2, and budgeted)
//	server.Tracked.Submit                  + queue, snapshot publish (and WAL on a durable registry)
//	api.Client.Ingest -> server.New        + HTTP, NDJSON decode, intern
//	api.Client.Ingest -> router.New        + ring partition, fan-out (cluster only)
//
// The rungs are interleaved — batch i goes through every rung before batch
// i+1 goes through any — and the differences are taken per batch and then
// their median: this box's speed drifts by 10 % within seconds, and a
// difference of two medians taken a second apart would be that drift.
// Codecs, interning and the read-side calls (Snapshot, the query plan,
// SaveTo, Load) are timed on their own.
//
// Every call is a span (name, start, end, parent, batch) kept in memory and
// written to trace-<workload>.json when the run ends.

// span is one timed call. Times are nanoseconds since the trace began;
// Parent is the index of the enclosing span in the same file (-1 for a
// rung's root); Batch is the index of the measured batch the call carried,
// or of the repetition for calls that carry none (-1 on a root).
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Batch   int    `json:"batch"`
}

type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, parent, batch int) int {
	t.spans = append(t.spans, span{Name: name, Parent: parent, Batch: batch, StartNS: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) time.Duration {
	t.spans[id].EndNS = int64(time.Since(t.t0))
	return time.Duration(t.spans[id].EndNS - t.spans[id].StartNS)
}

// rung is one entry point the measured batches are replayed through.
type rung struct {
	name string
	call func(i int, batch []sim.Action) error
	// pre and post, when set, run untimed around each call, outside its span.
	pre, post func()
	per       []float64 // nanoseconds per call, filled by replay
}

// ladder is one traced replay: the workload, its warm-up and measured
// batches, and the spans recorded so far.
type ladder struct {
	w       workload
	warm    []sim.Action   // fills the window(s); replayed untimed into each rung first
	batches [][]sim.Action // the measured batches, identical for every rung
	tr      tracer
	dir     string   // scratch for durable registries and spill segments
	closers []func() // release what the rungs hold, run in reverse at the end
}

func (l *ladder) onClose(f func()) { l.closers = append(l.closers, f) }

func (l *ladder) close() {
	for i := len(l.closers) - 1; i >= 0; i-- {
		l.closers[i]()
	}
}

// replay sends every measured batch through every rung, interleaved, each
// call under its rung's root span.
func (l *ladder) replay(rungs []*rung) error { return l.replayN(rungs, len(l.batches)) }

// replayN makes n interleaved rounds of calls; round i carries measured
// batch i when there is one.
func (l *ladder) replayN(rungs []*rung, n int) error {
	roots := make([]int, len(rungs))
	for j, r := range rungs {
		roots[j] = l.tr.begin("rung:"+r.name, -1, -1)
	}
	for i := 0; i < n; i++ {
		var b []sim.Action
		if i < len(l.batches) {
			b = l.batches[i]
		}
		for j, r := range rungs {
			if r.pre != nil {
				r.pre()
			}
			id := l.tr.begin(r.name, roots[j], i)
			err := r.call(i, b)
			r.per = append(r.per, float64(l.tr.end(id)))
			if err != nil {
				return fmt.Errorf("%s call %d: %w", r.name, i, err)
			}
			if r.post != nil {
				r.post()
			}
		}
	}
	for _, root := range roots {
		l.tr.end(root)
	}
	return nil
}

// repeat times fn reps times under one root span and returns the median.
func (l *ladder) repeat(name string, reps int, fn func() error) (time.Duration, error) {
	r := &rung{name: name, call: func(int, []sim.Action) error { return fn() }}
	err := l.replayN([]*rung{r}, reps)
	return r.median(), err
}

// minus is the median over batches of a's time minus b's.
func minus(a, b *rung) time.Duration {
	d := make([]float64, len(a.per))
	for i := range d {
		d[i] = a.per[i] - b.per[i]
	}
	return time.Duration(median(d))
}

// over is the median over batches of a's time over b's.
func over(a, b *rung) float64 {
	d := make([]float64, len(a.per))
	for i := range d {
		d[i] = a.per[i] / b.per[i]
	}
	return median(d)
}

func (r *rung) median() time.Duration { return time.Duration(median(r.per)) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ladderBatches is how many measured batches each rung replays: three
// quarters of a window, but never fewer than 8 (a median of per-batch
// differences needs them; with 2000-action batches that is two windows) nor
// more than 400, so a rung stays within a few seconds on every workload.
func ladderBatches(w workload) int {
	return min(max(w.window*3/(4*w.batch), 8), 400)
}

// simConfig is the tracker configuration the servers run for w.
func simConfig(w workload) sim.Config {
	return sim.Config{K: w.k, WindowSize: w.window, Slide: w.slide, Beta: w.beta, ExpectedUsers: w.users}
}

// spec is the same configuration as a served tracker's spec.
func spec(w workload) api.Spec {
	return api.Spec{K: w.k, Window: w.window, Slide: w.slide, Beta: w.beta, Batch: 1, ExpectedUsers: w.users}
}

// runLadder replays a shortened copy of w's exact batches through every
// layer, adds the per-layer metrics to res and writes the spans to traceOut.
func runLadder(w workload, o runOpts, traceOut string, res *e2eResult) error {
	dir, err := os.MkdirTemp(o.workDir, "ladder-"+w.name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	nb := ladderBatches(w)
	warmN := w.window * max(w.shards, 1)
	all := w.generateN(o.seed, warmN+nb*w.batch)
	l := &ladder{w: w, warm: all[:warmN], dir: dir, tr: tracer{t0: time.Now()}}
	defer l.close()
	for i := 0; i < nb; i++ {
		l.batches = append(l.batches, all[warmN+i*w.batch:warmN+(i+1)*w.batch])
	}
	logf("%s ladder: %d warm-up actions, %d batches of %d", w.name, warmN, nb, w.batch)

	for _, step := range []func(*e2eResult) error{l.codecs, l.ingestPath, l.routerPath, l.overhead} {
		if err := step(res); err != nil {
			return err
		}
	}
	res.set("trace.span_count", float64(len(l.tr.spans)), "count")

	out, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{w.name, o.seed, l.tr.spans})
	if err != nil {
		return err
	}
	if err := os.WriteFile(traceOut, out, 0o644); err != nil {
		return err
	}
	logf("%s ladder: %d spans written to %s", w.name, len(l.tr.spans), traceOut)
	return nil
}

// codecs times the NDJSON wire format and name interning alone. The intern
// table already knows the warm-up's users, as a serving tracker's does.
func (l *ladder) codecs(res *e2eResult) error {
	bodies := make([][]byte, len(l.batches))
	names := make([][]string, len(l.batches))
	tb := intern.New(l.w.users)
	for _, a := range l.warm {
		tb.Intern(userName(a.User))
	}
	for i, b := range l.batches {
		for _, a := range b {
			names[i] = append(names[i], userName(a.User))
		}
	}
	enc := &rung{name: "dataio.WriteNDJSON", call: func(i int, b []sim.Action) error {
		var buf bytes.Buffer
		err := dataio.WriteNDJSON(&buf, b)
		bodies[i] = buf.Bytes()
		return err
	}}
	dec := &rung{name: "dataio.ReadNDJSON", call: func(i int, _ []sim.Action) error {
		return dataio.ReadNDJSON(bytes.NewReader(bodies[i]), func(sim.Action) bool { return true })
	}}
	in := &rung{name: "intern.Table.Intern", call: func(i int, _ []sim.Action) error {
		for _, n := range names[i] {
			tb.Intern(n)
		}
		return nil
	}}
	if err := l.replay([]*rung{enc, dec, in}); err != nil {
		return err
	}
	perAction := func(r *rung) float64 { return us(r.median()) / float64(l.w.batch) }
	res.set("dataio.ndjson_encode_us_per_action", perAction(enc), "us")
	res.set("dataio.ndjson_decode_us_per_action", perAction(dec), "us")
	res.set("intern.intern_us_per_action", perAction(in), "us")
	return nil
}

// warmTracker builds a tracker and feeds it the warm-up.
func (l *ladder) warmTracker(cfg sim.Config) (*sim.Tracker, error) {
	tr, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	l.onClose(func() { tr.Close() })
	return tr, tr.ProcessAll(l.warm)
}

// warmRegistry builds a registry (durable when dataDir is set) with one
// tracker and submits the warm-up to it.
func (l *ladder) warmRegistry(sp api.Spec, dataDir string) (*server.Tracked, error) {
	reg := server.NewRegistry()
	if dataDir != "" {
		reg.SetDataDir(dataDir)
	}
	l.onClose(func() { reg.Close() })
	t, err := reg.Add(tracker, sp)
	if err != nil {
		return nil, err
	}
	for warm := l.warm; len(warm) > 0; {
		n := min(preloadBatch, len(warm))
		if _, err := t.Submit(context.Background(), warm[:n]); err != nil {
			return nil, err
		}
		warm = warm[n:]
	}
	return t, nil
}

// listen serves h on a fresh loopback port until the ladder closes.
func (l *ladder) listen(h http.Handler) (url string, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		_ = srv.Serve(ln) // returns ErrServerClosed on Shutdown
		close(done)
	}()
	l.onClose(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx) // in-process scratch server; nothing to recover
		<-done
	})
	return "http://" + ln.Addr().String(), nil
}

// httpIngester serves h on loopback, returns an ingester over the ladder's
// whole stream pointed at it, and sends the warm-up through it.
func (l *ladder) httpIngester(h http.Handler) (*ingester, error) {
	url, err := l.listen(h)
	if err != nil {
		return nil, err
	}
	all := append([]sim.Action(nil), l.warm...)
	for _, b := range l.batches {
		all = append(all, b...)
	}
	in := &ingester{w: l.w, c: newConn(url), actions: all}
	return in, in.sendAll(context.Background(), len(l.warm), preloadBatch)
}

// ingestPath is the ladder proper, from the window index up to an HTTP
// ingest, plus the read-side calls on the final serial tracker.
func (l *ladder) ingestPath(res *e2eResult) error {
	ctx := context.Background()
	cfg := simConfig(l.w)

	// stream.Stream alone: Ingest plus the Advance a tracker would issue.
	st := stream.NewSized(l.w.users)
	feed := func(b []sim.Action) error {
		for _, a := range b {
			if _, err := st.Ingest(a); err != nil {
				return err
			}
			st.Advance(a.ID - stream.ActionID(l.w.window) + 1)
		}
		return nil
	}
	if err := feed(l.warm); err != nil {
		return err
	}
	index := &rung{name: "stream.Stream.Ingest+Advance", call: func(_ int, b []sim.Action) error { return feed(b) }}

	tr, err := l.warmTracker(cfg)
	if err != nil {
		return err
	}
	// Mallocs are read around the engine's calls but outside its spans:
	// ReadMemStats stops the world.
	var mallocs uint64
	var before, after runtime.MemStats
	engine := &rung{name: "sim.Tracker.ProcessAll",
		call: func(_ int, b []sim.Action) error { return tr.ProcessAll(b) },
		pre:  func() { runtime.ReadMemStats(&before) },
		post: func() { runtime.ReadMemStats(&after); mallocs += after.Mallocs - before.Mallocs },
	}

	cfg2 := cfg
	cfg2.Parallelism = 2
	tr2, err := l.warmTracker(cfg2)
	if err != nil {
		return err
	}
	engine2 := &rung{name: "sim.Tracker.ProcessAll/p2", call: func(_ int, b []sim.Action) error { return tr2.ProcessAll(b) }}

	sp := spec(l.w)
	sp.SnapshotWALBytes = l.w.snapshotWALBytes
	memT, err := l.warmRegistry(sp, "")
	if err != nil {
		return err
	}
	submit := &rung{name: "server.Tracked.Submit", call: func(_ int, b []sim.Action) error {
		_, err := memT.Submit(ctx, b)
		return err
	}}
	durT, err := l.warmRegistry(sp, filepath.Join(l.dir, "durable"))
	if err != nil {
		return err
	}
	durable := &rung{name: "server.Tracked.Submit/durable", call: func(_ int, b []sim.Action) error {
		_, err := durT.Submit(ctx, b)
		return err
	}}

	hsp := spec(l.w)
	hsp.Names = l.w.names
	reg := server.NewRegistry()
	l.onClose(func() { reg.Close() })
	if _, err := reg.Add(tracker, hsp); err != nil {
		return err
	}
	in, err := l.httpIngester(server.New(reg))
	if err != nil {
		return err
	}
	viaHTTP := &rung{name: "api.Client.Ingest->server", call: func(_ int, b []sim.Action) error { return in.send(ctx, len(b)) }}

	rungs := []*rung{index, engine, engine2, submit, durable, viaHTTP}

	// What a memory budget costs the engine: the same replay with the cold
	// tier attached and the workload's budget, over the plain replay.
	var budgeted *rung
	if l.w.memoryBudget > 0 {
		bcfg := cfg
		bcfg.SpillDir = filepath.Join(l.dir, "spill")
		bcfg.MemoryBudgetBytes = l.w.memoryBudget
		trB, err := l.warmTracker(bcfg)
		if err != nil {
			return err
		}
		budgeted = &rung{name: "sim.Tracker.ProcessAll/budgeted", call: func(_ int, b []sim.Action) error { return trB.ProcessAll(b) }}
		rungs = append(rungs, budgeted)
	}
	if err := l.replay(rungs); err != nil {
		return err
	}

	batch := float64(l.w.batch)
	res.set("stream.ingest_us_per_action", us(index.median())/batch, "us")
	res.set("core.process_us_per_action", us(engine.median())/batch, "us")
	res.set("core.process_self_us_per_action", us(minus(engine, index))/batch, "us")
	res.set("core.allocs_per_action", float64(mallocs)/(batch*float64(len(l.batches))), "count")
	res.set("pool.speedup_p2", over(engine, engine2), "ratio")
	res.set("server.submit_us_per_batch", us(submit.median()), "us")
	res.set("server.submit_self_us_per_batch", us(minus(submit, engine)), "us")
	res.set("server.wal_self_us_per_batch", us(minus(durable, submit)), "us")
	res.set("server.http_self_us_per_batch", us(minus(viaHTTP, submit)), "us")
	// What the ladder predicts a durable HTTP ack costs: the HTTP rung plus
	// the WAL's share.
	res.set("trace.ladder_ack_ms", us(viaHTTP.median()+minus(durable, submit))/1000, "ms")
	res.set("stream.hot_log_bytes_unbudgeted", float64(tr.Snapshot().HotLogBytes), "B")
	if budgeted != nil {
		res.set("stream.spill_overhead_ratio", over(budgeted, engine), "ratio")
	} else {
		res.set("stream.spill_overhead_ratio", 1, "ratio") // no budget, no overhead
	}

	// Read side, on the final serial tracker.
	const reps = 20
	var snap sim.Snapshot
	d, _ := l.repeat("sim.Tracker.Snapshot", reps, func() error { snap = tr.Snapshot(); return nil })
	res.set("sim.snapshot_build_us", us(d), "us")
	d, err = l.repeat("query.Plan.Open+drain", reps, func() error {
		rel, err := topkPlan.Plan.Open(query.Env{Current: &snap})
		if err != nil {
			return err
		}
		query.Collect(rel, 0)
		return nil
	})
	if err != nil {
		return err
	}
	res.set("query.exec_us", us(d), "us")
	var saved bytes.Buffer
	d, err = l.repeat("sim.Tracker.SaveTo", reps, func() error {
		saved.Reset()
		return tr.SaveTo(&saved)
	})
	if err != nil {
		return err
	}
	res.set("sim.saveto_ms", us(d)/1000, "ms")
	res.set("sim.saveto_bytes", float64(saved.Len()), "B")
	d, err = l.repeat("sim.Load", reps, func() error {
		loaded, err := sim.Load(bytes.NewReader(saved.Bytes()), cfg)
		if err != nil {
			return err
		}
		return loaded.Close()
	})
	if err != nil {
		return err
	}
	res.set("sim.load_ms", us(d)/1000, "ms")
	return nil
}

// routerPath times internal/router in front of in-process servers against
// the same number of servers asked directly (in parallel, so the direct time
// is the slowest shard's): ingest, merged /seeds against /candidates, and
// the pushed-down query. Workloads without a router report zeros.
func (l *ladder) routerPath(res *e2eResult) error {
	if l.w.shards == 0 {
		res.set("router.ingest_self_us_per_batch", 0, "us")
		res.set("router.seeds_merge_ms", 0, "ms")
		res.set("router.query_merge_ms", 0, "ms")
		return nil
	}
	ctx := context.Background()
	n := l.w.shards
	shardURLs := func() ([]string, error) {
		var urls []string
		for i := 0; i < n; i++ {
			reg := server.NewRegistry()
			l.onClose(func() { reg.Close() })
			if _, err := reg.Add(tracker, spec(l.w)); err != nil {
				return nil, err
			}
			url, err := l.listen(server.New(reg))
			if err != nil {
				return nil, err
			}
			urls = append(urls, url)
		}
		return urls, nil
	}
	routed, err := shardURLs()
	if err != nil {
		return err
	}
	direct, err := shardURLs()
	if err != nil {
		return err
	}
	rt, err := router.New(routed, router.Options{})
	if err != nil {
		return err
	}
	l.onClose(rt.Close)
	front, err := l.httpIngester(rt)
	if err != nil {
		return err
	}
	// The direct fleet gets the partition the router would make.
	ring := rt.Ring()
	clients := make([]*api.Client, n)
	for i, u := range direct {
		clients[i] = newConn(u)
	}
	sendDirect := func(batch []sim.Action) error {
		parts := make([][]sim.Action, n)
		for _, a := range batch {
			i := ring.ShardForID(a.User)
			parts[i] = append(parts[i], a)
		}
		return eachShard(n, func(i int) error {
			_, err := clients[i].Ingest(ctx, tracker, parts[i])
			return err
		})
	}
	for warm := l.warm; len(warm) > 0; {
		k := min(preloadBatch, len(warm))
		if err := sendDirect(warm[:k]); err != nil {
			return err
		}
		warm = warm[k:]
	}

	pair := func(name string, viaFront, viaShards func(b []sim.Action) error) (time.Duration, error) {
		a := &rung{name: name + "->router", call: func(_ int, b []sim.Action) error { return viaFront(b) }}
		b := &rung{name: name + "->shards", call: func(_ int, b []sim.Action) error { return viaShards(b) }}
		err := l.replay([]*rung{a, b})
		return minus(a, b), err
	}
	d, err := pair("api.Client.Ingest", func(b []sim.Action) error { return front.send(ctx, len(b)) }, sendDirect)
	if err != nil {
		return err
	}
	res.set("router.ingest_self_us_per_batch", us(d), "us")
	d, err = pair("api.Client.Seeds",
		func([]sim.Action) error { _, err := front.c.Seeds(ctx, tracker); return err },
		func([]sim.Action) error {
			return eachShard(n, func(i int) error { _, err := clients[i].Candidates(ctx, tracker); return err })
		})
	if err != nil {
		return err
	}
	res.set("router.seeds_merge_ms", us(d)/1000, "ms")
	d, err = pair("api.Client.Query",
		func([]sim.Action) error { _, err := front.c.Query(ctx, tracker, topkPlan); return err },
		func([]sim.Action) error {
			return eachShard(n, func(i int) error { _, err := clients[i].Query(ctx, tracker, topkPlan); return err })
		})
	if err != nil {
		return err
	}
	res.set("router.query_merge_ms", us(d)/1000, "ms")
	return nil
}

// eachShard runs fn(0..n-1) concurrently and returns the first error.
func eachShard(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// overhead times empty spans: what recording itself costs.
func (l *ladder) overhead(res *e2eResult) error {
	scratch := tracer{t0: time.Now()}
	const n = 100_000
	began := time.Now()
	for i := 0; i < n; i++ {
		scratch.end(scratch.begin("empty", -1, -1))
	}
	res.set("trace.overhead_us_per_span", us(time.Since(began))/n, "us")
	return nil
}

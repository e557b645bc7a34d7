// Command simserve runs the long-lived SIM serving layer: one or more named
// trackers behind an HTTP API that ingests NDJSON actions and answers
// influence queries while the stream keeps flowing (internal/server).
//
// A single tracker from flags:
//
//	simserve -addr :8384 -k 10 -window 50000
//
// or several from a JSON spec:
//
//	simserve -spec trackers.json
//	# {"trackers": {"default": {"k": 10, "window": 50000},
//	#               "fast":    {"k": 5, "window": 10000, "oracle": "threshold"}}}
//
// Ingest and query over HTTP:
//
//	simgen -preset syn-o -actions 100000 -format ndjson |
//	    curl -s --data-binary @- localhost:8384/v1/trackers/default/actions
//	curl -s localhost:8384/v1/trackers/default/seeds
//	curl -s localhost:8384/metrics
//
// -replay feeds a recorded stream (TSV or NDJSON; "-" for stdin) through the
// same ingest path at startup; -follow keeps tailing the file for appended
// actions, turning a growing log into a live feed.
//
// -data-dir enables durability: each tracker keeps a SIM2 snapshot plus a
// write-ahead log under <dir>/<name>/, appends every applied batch to the
// log (fsynced) before acknowledging it, and periodically snapshots and
// truncates. On boot, trackers restore the latest snapshot and replay the
// WAL tail, so even a kill -9 mid-ingest loses no acknowledged action:
//
//	simserve -addr :8384 -k 10 -window 50000 -data-dir /var/lib/simserve
//
// The recovered tracker continues exactly as the uninterrupted one would
// have, at any -batch, provided it restarts with the same -batch.
//
// (Re-running -replay of a static file against a recovered tracker will
// report stream-order conflicts: those actions are already ingested.)
//
// On SIGTERM/SIGINT the server shuts the listener down, stops the replay
// follower, drains every tracker's ingest queue, takes a final snapshot of
// durable trackers, and only then exits — no accepted action is lost.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/api"
	"repro/internal/dataio"
	"repro/internal/fault"
	"repro/internal/server"
	"repro/sim"
)

func main() {
	var (
		addr      = flag.String("addr", ":8384", "HTTP listen address")
		spec      = flag.String("spec", "", "JSON tracker spec file (overrides the single-tracker flags)")
		name      = flag.String("name", "default", "tracker name for the flag-built tracker")
		k         = flag.Int("k", 10, "seed budget k")
		window    = flag.Int("window", 50000, "window size N")
		slide     = flag.Int("slide", 1, "slide length L")
		beta      = flag.Float64("beta", 0.1, "beta knob")
		framework = flag.String("framework", "sic", "framework: sic or ic")
		orc       = flag.String("oracle", "sieve", "oracle: sieve, threshold, blogwatch, mkc")
		batch     = flag.Int("batch", 0, "sim ingestion batch size within each submitted batch (1 = per-action)")
		users     = flag.Int("users", 0, "expected distinct users (stream index pre-sizing hint)")
		queue     = flag.Int("queue", 0, "ingest queue capacity in batches (0 = default 256)")
		replay    = flag.String("replay", "", "replay a stream file (TSV/NDJSON, \"-\" = stdin) into the flag-built tracker")
		follow    = flag.Bool("follow", false, "keep tailing the -replay file for appended actions")
		chunk     = flag.Int("replay-chunk", 512, "actions per replay ingest batch")
		dataDir   = flag.String("data-dir", "", "durability root: per-tracker snapshot + write-ahead log under <dir>/<name>/; on boot, trackers recover their state from it")
		snapBytes = flag.Int64("wal-snapshot-bytes", 0, "WAL size triggering snapshot+truncate for the flag-built tracker (0 = default 4 MiB)")
		spillDir  = flag.String("spill-dir", "", "cold-tier root: per-tracker spilled segment files under <dir>/<name>/ (default with -data-dir: <data-dir>/<name>/spill)")
		memBudget = flag.Int64("memory-budget", 0, "resident contribution-log byte budget for the flag-built tracker; past it, idle users' logs spill to the cold tier (0 = never spill; needs -spill-dir or -data-dir)")
		names     = flag.Bool("names", false, "name-mode tracker: NDJSON \"user\" fields are string names, interned to dense IDs")
		faultSpec = flag.String("fault", "", "TESTING ONLY: inject filesystem faults into the durable path; semicolon-separated rules like op=sync,path=wal.log,after=2,times=1,err=ENOSPC (see internal/fault)")
		faultSeed = flag.Int64("fault-seed", 0, "TESTING ONLY: derive one deterministic fault rule from this seed (non-zero; composes with -fault)")
		version   = flag.Bool("version", false, "print build/version info and exit")
	)
	flag.Parse()

	if *version {
		fmt.Printf("simserve %s (%s, %s/%s)\n", server.Version, runtime.Version(), runtime.GOOS, runtime.GOARCH)
		return
	}

	reg := server.NewRegistry()
	if *faultSpec != "" || *faultSeed != 0 {
		inj := fault.NewInjector(fault.OS())
		if *faultSpec != "" {
			rules, err := fault.ParseRules(*faultSpec)
			if err != nil {
				fatalf("%v", err)
			}
			for _, r := range rules {
				inj.Add(r)
				log.Printf("fault armed: %s", r.String())
			}
		}
		if *faultSeed != 0 {
			r := fault.FromSeed(*faultSeed)
			inj.Add(r)
			log.Printf("fault armed (seed %d): %s", *faultSeed, r.String())
		}
		reg.SetFS(inj)
	}
	if *dataDir != "" {
		reg.SetDataDir(*dataDir)
	}
	if *spillDir != "" {
		reg.SetSpillDir(*spillDir)
	}
	specs := map[string]api.Spec{}
	if *spec != "" {
		f, err := os.Open(*spec)
		if err != nil {
			fatalf("%v", err)
		}
		specs, err = api.ReadSpecs(f)
		f.Close()
		if err != nil {
			fatalf("%v", err)
		}
	} else {
		fwk, err := sim.ParseFramework(*framework)
		if err != nil {
			fatalf("%v", err)
		}
		o, err := sim.ParseOracle(*orc)
		if err != nil {
			fatalf("%v", err)
		}
		specs[*name] = api.Spec{
			K: *k, Window: *window, Slide: *slide, Beta: *beta,
			Framework: fwk, Oracle: o,
			Batch: *batch, ExpectedUsers: *users, Queue: *queue,
			SnapshotWALBytes: *snapBytes, Names: *names,
			MemoryBudgetBytes: *memBudget,
		}
	}
	if *replay != "" {
		sp, ok := specs[*name]
		if !ok {
			fatalf("-replay targets unknown tracker %q", *name)
		}
		if err := checkReplayTarget(sp); err != nil {
			fatalf("-replay into tracker %q: %v", *name, err)
		}
	}
	for sname, sp := range specs {
		t, err := reg.Add(sname, sp)
		if err != nil {
			fatalf("%v", err)
		}
		log.Printf("tracker %q: k=%d window=%d framework=%v oracle=%v", sname, sp.K, sp.Window, sp.Framework, sp.Oracle)
		logRecovery(t)
	}

	srv := server.New(reg)
	httpSrv := &http.Server{Addr: *addr, Handler: srv}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	replayDone := make(chan error, 1)
	if *replay != "" {
		t, _ := reg.Get(*name) // checked against specs above
		go func() { replayDone <- runReplay(ctx, t, *replay, *follow, *chunk) }()
	} else {
		replayDone <- nil
	}

	httpDone := make(chan error, 1)
	go func() {
		log.Printf("listening on %s", *addr)
		httpDone <- httpSrv.ListenAndServe()
	}()

	select {
	case <-ctx.Done():
		log.Printf("signal received, draining")
	case err := <-httpDone:
		fatalf("http: %v", err)
	}

	// Graceful drain: stop accepting connections and let in-flight requests
	// finish, stop the replay follower, then drain every ingest queue.
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if err := <-replayDone; err != nil && !errors.Is(err, context.Canceled) {
		log.Printf("replay: %v", err)
	}
	if err := srv.Close(); err != nil {
		log.Printf("drain: %v", err)
	}
	for _, n := range reg.Names() {
		if t, ok := reg.Get(n); ok {
			snap := t.Snapshot()
			log.Printf("tracker %q: processed=%d value=%g seeds=%v", n, snap.Processed, snap.Value, snap.Seeds)
		}
	}
}

// logRecovery reports what a durable tracker restored at boot.
func logRecovery(t *server.Tracked) {
	info, durable := t.Recovery()
	if !durable {
		return
	}
	snap := t.Snapshot()
	log.Printf("tracker %q: recovered processed=%d (snapshot: loaded=%v processed=%d; wal: %d batches, %d actions)",
		t.Name(), snap.Processed, info.SnapshotLoaded, info.SnapshotProcessed, info.WALBatches, info.WALActions)
}

// checkReplayTarget refuses -replay into a name-mode tracker. The replay
// reader yields numeric user IDs and Submit takes them as already interned,
// so they would share one ID space with the dense IDs the intern table hands
// to HTTP ingest — the mix api.Spec.Names promises cannot happen.
func checkReplayTarget(sp api.Spec) error {
	if sp.Names {
		return errors.New("the tracker is in name mode and -replay feeds numeric user IDs past its intern table: " +
			"seeds would come back without names, and the WAL would log IDs no name of the table was ever given; " +
			"POST the stream to /v1/trackers/<name>/actions instead")
	}
	return nil
}

// runReplay streams a recorded action log into t through the same bounded
// ingest queue the HTTP path uses, in chunks of chunkSize. With follow, the
// reader keeps tailing the file for appended bytes until ctx is canceled,
// and a partially filled chunk is flushed whenever the feed goes idle so
// served answers never lag a paused producer. The final flush runs even
// after ctx cancellation (drain semantics: whatever was read is fed before
// the tracker shuts down — main closes the registry only after runReplay
// returns).
func runReplay(ctx context.Context, t *server.Tracked, path string, follow bool, chunkSize int) error {
	if chunkSize < 1 {
		chunkSize = 1
	}
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	batch := make([]sim.Action, 0, chunkSize)
	count := 0
	flush := func(fctx context.Context) error {
		if len(batch) == 0 {
			return nil
		}
		for {
			_, err := t.Submit(fctx, batch)
			if err == nil {
				batch = batch[:0]
				return nil
			}
			if errors.Is(err, server.ErrOverloaded) {
				// Admission control shed the batch: the replay producer is
				// exactly the kind of bulk feeder that should yield to live
				// HTTP traffic, not die. Back off and resubmit.
				select {
				case <-fctx.Done():
				case <-time.After(100 * time.Millisecond):
					continue
				}
			}
			// Keep the batch: a cancellation-aborted submit is retried by
			// the final context.Background() drain flush.
			return fmt.Errorf("after %d actions: %w", count, err)
		}
	}
	if follow {
		// onIdle runs on this goroutine, between decoder Read calls, so it
		// may safely flush the partial chunk accumulated so far.
		r = &tailReader{ctx: ctx, r: r, poll: 200 * time.Millisecond,
			onIdle: func() error { return flush(ctx) }}
	}
	var subErr error
	err := dataio.ReadAuto(r, func(a sim.Action) bool {
		batch = append(batch, a)
		count++
		if len(batch) >= chunkSize {
			if subErr = flush(ctx); subErr != nil {
				return false
			}
		}
		return true
	})
	if subErr != nil && !errors.Is(subErr, context.Canceled) {
		// A real ingest error (bad IDs, closed tracker): the kept batch
		// would only fail again, so report it. Cancellation instead falls
		// through to the drain flush below.
		return subErr
	}
	if err != nil {
		return err
	}
	// Deliberately not ctx: a SIGTERM that ended a -follow tail (or aborted
	// a mid-stream flush) must not drop the last partial chunk on the floor.
	if err := flush(context.Background()); err != nil {
		return err
	}
	log.Printf("replay: fed %d actions from %s", count, path)
	return nil
}

// tailReader turns EOF into "wait for more": on underlying EOF it invokes
// onIdle (flushing replay's partial chunk), then sleeps and retries until
// its context is canceled, at which point it reports EOF for real. This is
// what makes -follow a live file feed.
type tailReader struct {
	ctx    context.Context
	r      io.Reader
	poll   time.Duration
	onIdle func() error
}

func (t *tailReader) Read(p []byte) (int, error) {
	for {
		n, err := t.r.Read(p)
		if n > 0 || (err != nil && err != io.EOF) {
			return n, err
		}
		if t.onIdle != nil {
			if err := t.onIdle(); err != nil {
				return 0, io.EOF // surface via replay's final flush path
			}
		}
		select {
		case <-t.ctx.Done():
			return 0, io.EOF
		case <-time.After(t.poll):
		}
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "simserve: "+format+"\n", args...)
	os.Exit(1)
}

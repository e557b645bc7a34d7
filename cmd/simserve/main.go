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
//	simgen -preset syn-o -actions 100000 |
//	    curl -s --data-binary @- localhost:8384/v1/trackers/default/actions
//	curl -s localhost:8384/v1/trackers/default/seeds
//	curl -s localhost:8384/metrics
//
// A recorded stream of any size, or a growing log, is fed with simctl
// ingest (NDJSON, in chunks over the same POST /actions):
//
//	simctl ingest default actions.ndjson
//	tail -F actions.log | simctl ingest default -
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
// (Re-ingesting a static file into a recovered tracker fails with a 409
// stream-order conflict: those actions are already ingested.)
//
// On SIGTERM/SIGINT the server shuts the listener down, drains every
// tracker's ingest queue, takes a final snapshot of durable trackers, and
// only then exits — no accepted action is lost.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/api"
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
		users     = flag.Int("users", 0, "expected distinct users (name-interning pre-sizing hint)")
		dataDir   = flag.String("data-dir", "", "durability root: per-tracker snapshot + write-ahead log under <dir>/<name>/; on boot, trackers recover their state from it")
		snapBytes = flag.Int64("wal-snapshot-bytes", 0, "WAL size triggering snapshot+truncate for the flag-built tracker (0 = default 4 MiB)")
		memBudget = flag.Int64("memory-budget", 0, "resident contribution-log byte budget for the flag-built tracker; past it, idle users' logs spill to the cold tier (0 = never spill; needs -data-dir, segments go under <data-dir>/<name>/spill)")
		names     = flag.Bool("names", false, "name-mode tracker: NDJSON \"user\" fields are string names, interned to dense IDs")
		faultSpec = flag.String("fault", "", "TESTING ONLY: inject filesystem faults into the durable path; semicolon-separated rules like op=sync,path=wal.log,after=2,times=1,err=ENOSPC (see internal/fault)")
		faultSeed = flag.Int64("fault-seed", 0, "TESTING ONLY: derive one deterministic fault rule from this seed (non-zero; composes with -fault)")
		version   = flag.Bool("version", false, "print build/version info and exit")
	)
	flag.Parse()

	if *version {
		fmt.Printf("simserve %s (%s, %s/%s)\n", api.Version, runtime.Version(), runtime.GOOS, runtime.GOARCH)
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
			Batch: *batch, ExpectedUsers: *users,
			SnapshotWALBytes: *snapBytes, Names: *names,
			MemoryBudgetBytes: *memBudget,
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
	// finish, then drain every ingest queue.
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		log.Printf("http shutdown: %v", err)
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

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "simserve: "+format+"\n", args...)
	os.Exit(1)
}

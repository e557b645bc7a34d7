// Command simrouter is the scatter-gather front of a sharded simserve
// fleet (internal/router): it partitions NDJSON ingest across shards by
// consistent hash of the acting user and serves the single-server tracker
// routes by merging shard answers — additive merges for
// value/stats/checkpoints, one exact greedy re-score over shard candidate
// pools for /seeds, plan pushdown with router-side topk/limit for /query.
//
//	simserve -addr :8401 -k 10 -window 50000 &
//	simserve -addr :8402 -k 10 -window 50000 &
//	simrouter -addr :8400 -shards http://127.0.0.1:8401,http://127.0.0.1:8402
//
//	simgen -preset syn-o -actions 100000 |
//	    curl -s --data-binary @- localhost:8400/v1/trackers/default/actions
//	simctl -addr http://localhost:8400 health          # per-shard view
//	simctl -addr http://localhost:8400 seeds default   # merged answer
//
// Every shard must serve the same tracker specs (start them from one spec
// file). When a shard dies the router marks it down, answers reads from
// the survivors with the X-Partial: true header and the DTO Partial flag,
// and re-probes it every second until the shard returns; ingest that
// needs a down shard is refused (503, retryable) rather than
// half-applied.
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
	"strings"
	"syscall"
	"time"

	"repro/api"
	"repro/internal/router"
)

func main() {
	var (
		addr    = flag.String("addr", ":8400", "HTTP listen address")
		shards  = flag.String("shards", "", "comma-separated shard base URLs (required), e.g. http://127.0.0.1:8401,http://127.0.0.1:8402")
		timeout = flag.Duration("timeout", 10*time.Second, "per-shard attempt timeout")
		version = flag.Bool("version", false, "print build/version info and exit")
	)
	flag.Parse()

	if *version {
		fmt.Printf("simrouter %s (%s, %s/%s)\n", api.Version, runtime.Version(), runtime.GOOS, runtime.GOARCH)
		return
	}

	var addrs []string
	for _, a := range strings.Split(*shards, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		fmt.Fprintln(os.Stderr, "simrouter: -shards is required (comma-separated shard base URLs)")
		os.Exit(2)
	}

	rt, err := router.New(addrs, router.Options{Timeout: *timeout})
	if err != nil {
		log.Fatalf("simrouter: %v", err)
	}
	log.Printf("%s over %d shards: %s", rt.Ring().Describe(), len(addrs), strings.Join(addrs, ", "))

	httpSrv := &http.Server{Addr: *addr, Handler: rt}
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
		log.Fatalf("simrouter: http: %v", err)
	}

	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	rt.Close()
}

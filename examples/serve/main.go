// Serve walkthrough: the full simserve client path in one process. We boot
// the serving layer (internal/server) on a loopback listener and drive it
// entirely through the typed api.Client: stream a synthetic SYN-O workload
// in as NDJSON chunks — querying the current seeds WHILE ingestion is
// running, the paper's real-time operating mode — run a relational plan
// against the published snapshot, and finally check that the served answer
// is bit-identical to a serial sim.Tracker replay of the same actions.
//
// Run with: go run ./examples/serve
//
// The same flow against a real simserve process:
//
//	simserve -addr :8384 -k 5 -window 2000 &
//	simgen -preset syn-o -users 500 -actions 10000 |
//	    curl -s --data-binary @- localhost:8384/v1/trackers/default/actions
//	curl -s localhost:8384/v1/trackers/default/seeds
//	curl -s -X POST localhost:8384/v1/trackers/default/query \
//	    -d '{"plan":{"scan":"seeds","ops":[{"op":"topk","col":"influence","k":3,"desc":true}]}}'
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"reflect"

	"repro/api"
	"repro/internal/gen"
	"repro/internal/server"
	"repro/query"
	"repro/sim"
)

func main() {
	ctx := context.Background()

	// A tracker spec, exactly what simserve -spec would read from JSON.
	spec := api.Spec{K: 5, Window: 2000, Framework: sim.SIC, Oracle: sim.SieveStreaming}

	reg := server.NewRegistry()
	if _, err := reg.Add("default", spec); err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{Handler: server.New(reg)}
	go httpSrv.Serve(ln)
	client := api.NewClient("http://" + ln.Addr().String())
	fmt.Printf("serving on %s\n", client.BaseURL)

	// A synthetic workload: 10k actions of the paper's SYN-O stream.
	actions := gen.Stream(gen.SynO(500, 10000, 2000, 7))

	// Ingest in NDJSON chunks, peeking at the live answer along the way —
	// reads never block ingestion, they consume the published snapshot.
	for i := 0; i < len(actions); i += 1000 {
		if _, err := client.Ingest(ctx, "default", actions[i:min(i+1000, len(actions))]); err != nil {
			log.Fatal(err)
		}
		seeds, err := client.Seeds(ctx, "default")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("t=%-6d seeds=%v value=%.0f\n", seeds.Processed, seeds.Seeds, seeds.Value)
	}

	// A relational query over the same published snapshot: the three seeds
	// with the largest influence sets, lazily scanned and cut server-side.
	res, err := client.Query(ctx, "default", api.QueryRequest{Plan: query.Plan{
		Scan: "seeds",
		Ops:  []query.Op{{Op: "topk", Col: "influence", K: 3, Desc: true}},
	}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query columns=%v\n", res.Columns)
	for _, row := range res.Rows {
		fmt.Printf("  seed user=%v influence=%v\n", row[1], row[2])
	}

	// The served state must match a serial replay exactly (the snapshot is
	// taken after each 1000-chunk, mirroring the server's publish points).
	ref, err := sim.New(spec.Config())
	if err != nil {
		log.Fatal(err)
	}
	defer ref.Close()
	var want sim.Snapshot
	for i := 0; i < len(actions); i += 1000 {
		if err := ref.ProcessAll(actions[i:min(i+1000, len(actions))]); err != nil {
			log.Fatal(err)
		}
		want = ref.Snapshot()
	}
	got, err := client.Snapshot(ctx, "default")
	if err != nil {
		log.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		log.Fatalf("served snapshot diverged from serial replay:\n got %+v\nwant %+v", got, want)
	}
	fmt.Printf("server matches serial replay: seeds=%v value=%.0f checkpoints=%d\n",
		got.Seeds, got.Value, got.Checkpoints)

	// Graceful drain, the SIGTERM path of cmd/simserve.
	httpSrv.Close()
	if err := reg.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("drained and closed")
}

package server_test

import (
	"context"
	"fmt"
	"net/http/httptest"

	"repro/api"
	"repro/internal/server"
	"repro/query"
	"repro/sim"
)

// ExampleServer is the HTTP client path end to end: boot a server over one
// tracker, ingest the paper's Figure 1 stream through the typed api.Client,
// read the seeds, and run a relational plan against the published snapshot.
func ExampleServer() {
	reg := server.NewRegistry()
	if _, err := reg.Add("default", api.Spec{K: 2, Window: 8}); err != nil {
		panic(err)
	}
	srv := httptest.NewServer(server.New(reg))
	defer srv.Close()
	defer reg.Close()

	ctx := context.Background()
	client := api.NewClient(srv.URL)
	np := sim.NoParent
	ir, err := client.Ingest(ctx, "default", []sim.Action{
		{ID: 1, User: 1, Parent: np}, {ID: 2, User: 2, Parent: 1},
		{ID: 3, User: 3, Parent: np}, {ID: 4, User: 3, Parent: 1},
		{ID: 5, User: 4, Parent: 3}, {ID: 6, User: 1, Parent: 3},
		{ID: 7, User: 5, Parent: 3}, {ID: 8, User: 4, Parent: 7},
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("accepted=%d processed=%d\n", ir.Accepted, ir.Processed)

	seeds, err := client.Seeds(ctx, "default")
	if err != nil {
		panic(err)
	}
	fmt.Printf("seeds=%v value=%.0f\n", seeds.Seeds, seeds.Value)

	// The most influential seed, computed server-side by a lazy plan.
	res, err := client.Query(ctx, "default", api.QueryRequest{Plan: query.Plan{
		Scan: "seeds",
		Ops:  []query.Op{{Op: "topk", Col: "influence", K: 1, Desc: true}},
	}})
	if err != nil {
		panic(err)
	}
	top := res.Rows[0]
	fmt.Printf("top seed: user=%d influence=%d\n", top[1].Int(), top[2].Int())
	// Output:
	// accepted=8 processed=8
	// seeds=[1 3] value=5
	// top seed: user=3 influence=4
}

// ExampleTracked is the embedded client path: the same serving path without
// HTTP — submit batches through the bounded queue and read the published
// snapshot from any goroutine.
func ExampleTracked() {
	reg := server.NewRegistry()
	tracked, err := reg.Add("demo", api.Spec{K: 2, Window: 8})
	if err != nil {
		panic(err)
	}
	defer reg.Close()

	batch := []sim.Action{
		{ID: 1, User: 1, Parent: sim.NoParent},
		{ID: 2, User: 2, Parent: 1},
		{ID: 3, User: 3, Parent: sim.NoParent},
		{ID: 4, User: 3, Parent: 1},
		{ID: 5, User: 4, Parent: 3},
	}
	processed, err := tracked.Submit(context.Background(), batch)
	if err != nil {
		panic(err)
	}
	snap := tracked.Snapshot()
	fmt.Printf("processed=%d seeds=%v value=%.0f\n", processed, snap.Seeds, snap.Value)
	// Output: processed=5 seeds=[1 3] value=4
}

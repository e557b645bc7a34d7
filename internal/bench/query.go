package bench

import (
	"fmt"
	"runtime"
	"time"

	"repro/query"
	"repro/sim"
)

// The query experiment measures the relational read path (package query)
// against a snapshot of the SYN-O stream: the same plan executed lazily
// (Plan.Open, the /v1 query endpoint's path) and through the materialized
// reference evaluator (Plan.Materialize). The lazy rows are where to look
// for an operator that starts materializing its input: their allocs/op must
// stay O(k)-ish — bounded by plan output, not by scan input.
func init() {
	register(Experiment{
		ID:    "query",
		Title: "Relational query path: lazy operators vs materialized reference",
		Run:   runQueryBench,
	})
}

func runQueryBench(sc Scale) Table {
	ds := synODataset(sc)
	tr, err := sim.New(sim.Config{
		K: sc.K, WindowSize: sc.Window, Slide: sc.Slide, Beta: sc.Beta,
	})
	if err != nil {
		panic(err)
	}
	defer tr.Close()
	// Two publish points so window-compare sources have both sides.
	half := len(ds.Actions) / 2
	if err := tr.ProcessAll(ds.Actions[:half]); err != nil {
		panic(err)
	}
	prev := tr.Snapshot()
	if err := tr.ProcessAll(ds.Actions[half:]); err != nil {
		panic(err)
	}
	cur := tr.Snapshot()
	env := query.Env{Current: &cur, Previous: &prev}

	topk := query.Plan{Scan: "influence", Ops: []query.Op{
		{Op: "topk", Col: "user", K: 10, Desc: true},
	}}
	join := query.Plan{Scan: "influence", Ops: []query.Op{
		{Op: "join", On: "seed", Right: &query.Plan{Scan: "seeds"}, RightOn: "user"},
		{Op: "topk", Col: "influence", K: 5, Desc: true},
	}}
	compare := query.Plan{Compare: "checkpoints", Ops: []query.Op{
		{Op: "filter", Col: "status", Cmp: "!=", Value: strVal("removed")},
	}}

	type cfg struct {
		name        string
		plan        query.Plan
		materialize bool
	}
	cfgs := []cfg{
		{"topk/lazy", topk, false},
		{"topk/materialized", topk, true},
		{"join/lazy", join, false},
		{"compare/lazy", compare, false},
	}
	t := Table{
		ID:     "query",
		Title:  "Relational query path over a SYN-O snapshot",
		Header: []string{"plan", "rows", "ns/op", "allocs/op", "B/op"},
		Notes: []string{
			"op = one full plan execution against the published snapshot; lazy rows run Plan.Open (the /v1 query path), materialized rows the reference evaluator",
			fmt.Sprintf("snapshot: %d seeds, %d influence rows, %d checkpoints",
				len(cur.Seeds), influenceRows(&cur), cur.Checkpoints),
			"lazy allocs/op is the guard: it tracks plan OUTPUT (O(k)), not scan input",
		},
	}
	const iters = 100
	for _, c := range cfgs {
		rows, m := measurePlan(c.plan, env, c.materialize, iters)
		t.Rows = append(t.Rows, []string{
			c.name, i0(rows), f1(m.NsPerAction), f1(m.AllocsPerAction), f1(m.BytesPerAction),
		})
	}
	return t
}

// measurePlan runs the plan iters times and reports per-execution cost.
// The lazy path is executed exactly as the server executes it: Open then
// Collect, so the clone-on-collect cost of returned rows is included.
func measurePlan(p query.Plan, env query.Env, materialize bool, iters int) (int, runMetrics) {
	execute := func() int {
		if materialize {
			_, rows, err := p.Materialize(env)
			if err != nil {
				panic(err)
			}
			return len(rows)
		}
		rel, err := p.Open(env)
		if err != nil {
			panic(err)
		}
		rows, _ := query.Collect(rel, 1<<20)
		return len(rows)
	}
	rows := execute() // warm-up, and the reported row count
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < iters; i++ {
		execute()
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	return rows, runMetrics{
		NsPerAction:     float64(elapsed.Nanoseconds()) / float64(iters),
		AllocsPerAction: float64(m1.Mallocs-m0.Mallocs) / float64(iters),
		BytesPerAction:  float64(m1.TotalAlloc-m0.TotalAlloc) / float64(iters),
	}
}

func influenceRows(s *sim.Snapshot) int {
	n := 0
	for _, si := range s.SeedInfluence {
		n += len(si.Influenced)
	}
	return n
}

func strVal(s string) *query.Value {
	v := query.StringValue(s)
	return &v
}

package bench

import (
	"fmt"
	"runtime"

	"repro/sim"
)

// The parallel-scaling experiment is an extension beyond the paper: it
// measures the checkpoint-sharded feed engine (the live checkpoints'
// oracles fed by one parallel loop per element, plus batched ingestion)
// against the serial per-action baseline on the RMAT-driven
// SYN-O stream under SIC, the paper's headline configuration.
func init() {
	register(Experiment{
		ID:    "par",
		Title: "Parallel/batched ingestion scaling, SIC on SYN-O (beyond the paper)",
		Run:   runParScaling,
	})
}

func runParScaling(sc Scale) Table {
	ds := synODataset(sc)
	type cfg struct {
		par, batch int
	}
	cfgs := []cfg{{1, 1}, {2, 1}, {4, 1}, {8, 1}, {1, sc.Slide}, {4, sc.Slide}}
	t := Table{
		ID:     "par",
		Title:  "Parallel/batched ingestion scaling, SIC on SYN-O (beyond the paper)",
		Header: []string{"parallelism", "batch", "actions/s", "speedup", "avg value"},
		Notes: []string{
			fmt.Sprintf("GOMAXPROCS=%d; speedup is relative to the serial per-action engine (1/1)", runtime.GOMAXPROCS(0)),
			"parallel runs (batch=1) are bit-identical to serial; batched runs are exact at batch boundaries",
		},
	}
	base := 0.0
	for _, c := range cfgs {
		m := runFramework(ds, sim.SIC, sc.K, sc.Window, sc.Slide, sc.Beta, c.par, c.batch)
		recordRun("par", fmt.Sprintf("SIC/p%d/b%d", c.par, c.batch), m)
		if base == 0 {
			base = m.Throughput
		}
		speedup := 0.0
		if base > 0 {
			speedup = m.Throughput / base
		}
		t.Rows = append(t.Rows, []string{
			i0(c.par), i0(c.batch), f1(m.Throughput), fmt.Sprintf("%.2fx", speedup), f1(m.AvgValue),
		})
	}
	return t
}

package bench

import (
	"fmt"
	"runtime"

	"repro/sim"
)

// The tput experiment is the streaming-throughput hot path in isolation: IC
// and SIC ingesting the RMAT-driven SYN-O stream, per action and batched,
// reporting the testing.B-style ns/op, allocs/op and B/op per ingested
// action alongside actions/sec. It is where those per-action numbers are
// read; the allocation ceiling itself is enforced by sim's
// TestIngestAllocCeiling over the same stream, and end-to-end performance is
// gated by benchmark/.
func init() {
	register(Experiment{
		ID:    "tput",
		Title: "Streaming ingestion hot path: ns, allocs and bytes per action",
		Run:   runTput,
	})
}

func runTput(sc Scale) Table {
	ds := synODataset(sc)
	type cfg struct {
		fw    sim.Framework
		batch int
	}
	cfgs := []cfg{
		{sim.SIC, 1},
		{sim.IC, 1},
		{sim.SIC, sc.Slide},
	}
	t := Table{
		ID:     "tput",
		Title:  "Streaming ingestion hot path (SYN-O)",
		Header: []string{"config", "actions/s", "ns/op", "allocs/op", "B/op", "avg value"},
		Notes: []string{
			fmt.Sprintf("GOMAXPROCS=%d; op = one ingested action; allocs measured over the whole run via runtime.MemStats", runtime.GOMAXPROCS(0)),
		},
	}
	for _, c := range cfgs {
		name := fmt.Sprintf("%v/b%d", c.fw, c.batch)
		m := runFramework(ds, c.fw, sc.K, sc.Window, sc.Slide, sc.Beta, c.batch)
		t.Rows = append(t.Rows, []string{
			name, f1(m.Throughput), f1(m.NsPerAction), f1(m.AllocsPerAction),
			f1(m.BytesPerAction), f1(m.AvgValue),
		})
	}
	return t
}

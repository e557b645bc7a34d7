package bench

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/gen"
	"repro/sim"
)

// The mem experiment measures what the tiered window state buys: for each
// dataset, one unbudgeted run (everything hot, the pre-tiering behavior)
// against one run under a constrained memory budget (a quarter of the
// unbudgeted run's peak hot-log bytes), spilling cold user logs to segment
// files. Reported per run: the peak resident window-state estimate,
// its hot/cold log split, spill/fault traffic, the end-of-run heap delta
// (runtime.MemStats ground truth for the estimate), and ingest throughput —
// the cost side of the trade.
func init() {
	register(Experiment{
		ID:    "mem",
		Title: "Tiered window state: resident bytes under a memory budget",
		Run:   runMemBench,
	})
}

// memDataset is BURST, the memory-bound workload the tiering targets:
// deep discussion cascades (root probability 0.05, so chains average ~19
// levels and every action appends an entry to each ancestor's log) that are
// temporally local (short response distances, so a cascade completes and
// goes idle while still inside the window). Per-user contribution logs
// dominate the resident estimate here — unlike the Table 3 presets, where
// the per-action index does — and idle finished cascades are exactly what
// the spill policy evicts.
func memDataset(sc Scale) Dataset {
	users := max(sc.Users/2, 256)
	c := gen.Config{
		Name: "BURST", Users: users, Actions: sc.StreamLen,
		RootProb: 0.05, MeanRespDist: 0.015 * float64(sc.Window),
		ZipfSkew: 1.05, Seed: sc.Seed,
	}
	return Dataset{Name: c.Name, Users: c.Users, Actions: gen.Stream(c)}
}

// memRun summarizes one streaming run's memory trajectory.
type memRun struct {
	budget        int64
	peakResident  int64 // max RetainedBytesEstimate over samples
	finalResident int64
	peakHot       int64 // max hot-tier log bytes over samples
	finalHot      int64
	finalCold     int64
	spills        int64
	faults        int64
	segments      int
	heapDelta     int64 // GC'd HeapAlloc growth across the run
	throughput    float64
}

// runMemTracker streams ds through one tracker, sampling the tier stats at
// every slide boundary. budget <= 0 runs unbudgeted (no spill directory).
func runMemTracker(ds Dataset, sc Scale, budget int64) memRun {
	cfg := sim.Config{
		K: sc.K, WindowSize: sc.Window, Slide: sc.Slide, Beta: sc.Beta,
		BatchSize: sc.BatchSize,
	}
	if budget > 0 {
		dir, err := os.MkdirTemp("", "simbench-spill-")
		if err != nil {
			panic(err)
		}
		defer os.RemoveAll(dir)
		cfg.SpillDir = dir
		cfg.MemoryBudgetBytes = budget
	}
	runtime.GC()
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	tr, err := sim.New(cfg)
	if err != nil {
		panic(err)
	}
	defer tr.Close()

	r := memRun{budget: budget}
	sample := func() {
		snap := tr.Snapshot()
		r.finalResident = snap.ResidentBytes
		r.finalHot = snap.HotLogBytes
		r.finalCold = snap.ColdLogBytes
		r.spills = snap.Spills
		r.faults = snap.ColdFaults
		r.segments = snap.ColdSegments
		r.peakResident = max(r.peakResident, snap.ResidentBytes)
		r.peakHot = max(r.peakHot, snap.HotLogBytes)
	}
	start := time.Now()
	for off := 0; off < len(ds.Actions); off += sc.Slide {
		if err := tr.ProcessAll(ds.Actions[off:min(off+sc.Slide, len(ds.Actions))]); err != nil {
			panic(err)
		}
		sample()
	}
	elapsed := time.Since(start)
	runtime.GC()
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	r.heapDelta = int64(m1.HeapAlloc) - int64(m0.HeapAlloc)
	if elapsed > 0 {
		r.throughput = float64(len(ds.Actions)) / elapsed.Seconds()
	}
	return r
}

func runMemBench(sc Scale) Table {
	t := Table{
		ID:    "mem",
		Title: "Resident window state: unbudgeted vs memory-budgeted (spilling) runs",
		Header: []string{
			"dataset", "mode", "budget", "peak resident", "peak hot",
			"final hot/cold", "spills", "faults", "segs", "heapΔ", "actions/s",
		},
		Notes: []string{
			"budget = peak unbudgeted hot-log bytes / 4; resident = stream RetainedBytesEstimate sampled at slide boundaries",
			"hot/cold = log-entry bytes resident in RAM vs spilled to cold segment files; heapΔ = GC'd HeapAlloc growth over the run",
		},
	}
	kb := func(b int64) string { return fmt.Sprintf("%.1fKB", float64(b)/1024) }
	for _, ds := range append(Datasets(sc), memDataset(sc)) {
		ref := runMemTracker(ds, sc, 0)
		budget := max(ref.peakHot/4, 4096)
		bud := runMemTracker(ds, sc, budget)
		for _, row := range []struct {
			mode string
			r    memRun
		}{{"unbudgeted", ref}, {"budgeted", bud}} {
			t.Rows = append(t.Rows, []string{
				ds.Name, row.mode, kb(row.r.budget), kb(row.r.peakResident), kb(row.r.peakHot),
				kb(row.r.finalHot) + "/" + kb(row.r.finalCold),
				i0(int(row.r.spills)), i0(int(row.r.faults)), i0(row.r.segments),
				kb(row.r.heapDelta), f1(row.r.throughput),
			})
		}
		t.Notes = append(t.Notes, fmt.Sprintf(
			"%s: peak resident -%0.0f%%, peak hot log -%0.0f%% under a %s budget (spilled %d logs across %d segments, %d fault-ins)",
			ds.Name,
			100*(1-float64(bud.peakResident)/float64(ref.peakResident)),
			100*(1-float64(bud.peakHot)/float64(ref.peakHot)),
			kb(budget), bud.spills, bud.segments, bud.faults))
	}
	return t
}

package bench

import (
	"runtime"
	"time"

	"repro/internal/graph"
	"repro/internal/greedy"
	"repro/internal/imm"
	"repro/internal/mc"
	"repro/internal/stream"
	"repro/internal/ubi"
	"repro/sim"
)

// runMetrics summarizes one streaming run of IC or SIC over a dataset.
type runMetrics struct {
	// AvgValue is the mean SIM objective at slide boundaries after warm-up
	// (Fig 5's y-axis).
	AvgValue float64
	// AvgCheckpoints is the mean number of live checkpoints (Fig 6).
	AvgCheckpoints float64
	// Throughput is actions per second after warm-up (Figs 7, 9–12).
	Throughput float64
	// NsPerAction is mean wall time per action after warm-up (1e9/Throughput).
	NsPerAction float64
	// AllocsPerAction and BytesPerAction are mean heap allocations per
	// ingested action over the WHOLE ingest loop (warm-up included; tracker
	// construction excluded — measurement starts after sim.New), measured
	// with runtime.ReadMemStats. They back the tput experiment.
	AllocsPerAction float64
	BytesPerAction  float64
	// ElementsFed is the number of oracle updates over the whole run (the
	// O(d·N) term of §4.2): Fig 7's throughput gap without the wall clock.
	ElementsFed int64
}

// runFramework streams ds through one tracker configuration, measuring
// values at slide boundaries and post-warm-up throughput. The first full
// window is warm-up: the paper's metrics likewise average over windows, not
// over the initial fill. batchSize is the ingestion batch size (1 = the
// per-action path); the stream is fed one slide per ProcessAll call, so a
// batch never straddles a boundary an answer is read at.
func runFramework(ds Dataset, fw sim.Framework, k, n, l int, beta float64, batchSize int) runMetrics {
	tr, err := sim.New(sim.Config{
		K: k, WindowSize: n, Slide: l, Beta: beta, Framework: fw,
		BatchSize: batchSize,
	})
	if err != nil {
		panic(err)
	}
	defer tr.Close()
	warm := n
	if warm > len(ds.Actions) {
		warm = len(ds.Actions) / 2
	}
	var sumVal, sumCp float64
	var boundaries int
	var elapsed time.Duration
	runtime.GC()
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var timedActions int
	for off := 0; off < len(ds.Actions); off += l {
		slide := ds.Actions[off:min(off+l, len(ds.Actions))]
		timed := off+len(slide) > warm
		startT := time.Now()
		if err := tr.ProcessAll(slide); err != nil {
			panic(err)
		}
		if timed {
			elapsed += time.Since(startT)
			timedActions += len(slide)
		}
		if timed && len(slide) == l {
			sumVal += tr.Value()
			sumCp += float64(tr.Stats().Checkpoints)
			boundaries++
		}
	}
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	m := runMetrics{ElementsFed: tr.Stats().ElementsFed}
	if boundaries > 0 {
		m.AvgValue = sumVal / float64(boundaries)
		m.AvgCheckpoints = sumCp / float64(boundaries)
	}
	if timedActions > 0 && elapsed > 0 {
		m.Throughput = float64(timedActions) / elapsed.Seconds()
		m.NsPerAction = float64(elapsed.Nanoseconds()) / float64(timedActions)
	}
	if n := len(ds.Actions); n > 0 {
		m.AllocsPerAction = float64(m1.Mallocs-m0.Mallocs) / float64(n)
		m.BytesPerAction = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n)
	}
	return m
}

// samplePoints returns the 1-based action indices (slide boundaries past the
// first full window) at which quality experiments snapshot the methods.
func samplePoints(streamLen, n, l, samples int) []int {
	first := ((n + l - 1) / l) * l
	if first > streamLen {
		first = streamLen
	}
	var pts []int
	if samples < 1 {
		samples = 1
	}
	span := streamLen - first
	for s := 0; s < samples; s++ {
		p := first
		if samples > 1 {
			p = first + span*s/(samples-1)
		} else {
			p = streamLen
		}
		p = p / l * l
		if p == 0 {
			p = l
		}
		if len(pts) == 0 || p > pts[len(pts)-1] {
			pts = append(pts, p)
		}
	}
	return pts
}

// methodNames is the fixed comparison order of the paper's figures.
var methodNames = []string{"SIC", "IC", "Greedy", "IMM", "UBI"}

// qualityRun holds per-method average influence spreads (Fig 8).
type qualityRun map[string]float64

// runQuality replays ds once, snapshotting every compared method at the
// sample points and evaluating each returned seed set with Monte-Carlo
// simulation under the WC model on the window's influence graph — exactly
// the paper's §6.1 quality protocol.
func runQuality(ds Dataset, sc Scale, k int) qualityRun {
	sic, err := sim.New(sim.Config{K: k, WindowSize: sc.Window, Slide: sc.Slide, Beta: sc.Beta, Framework: sim.SIC})
	if err != nil {
		panic(err)
	}
	ic, err := sim.New(sim.Config{K: k, WindowSize: sc.Window, Slide: sc.Slide, Beta: sc.Beta, Framework: sim.IC})
	if err != nil {
		panic(err)
	}
	ubiTr := ubi.New(k, ubi.Options{Seed: sc.Seed, Rounds: sc.MCRounds / 2})

	points := samplePoints(len(ds.Actions), sc.Window, sc.Slide, sc.Samples)
	next := 0
	sums := qualityRun{}
	counts := 0
	for i, a := range ds.Actions {
		if err := sic.Process(a); err != nil {
			panic(err)
		}
		if err := ic.Process(a); err != nil {
			panic(err)
		}
		if next >= len(points) || i+1 != points[next] {
			continue
		}
		next++
		counts++
		st := sic.Internal().Stream()
		ws := sic.Internal().WindowStart()
		g := graph.FromWindow(st, ws)

		spread := func(seeds []stream.UserID) float64 {
			return mc.Spread(g, seeds, sc.MCRounds, sc.Seed)
		}
		sums["SIC"] += spread(sic.Seeds())
		sums["IC"] += spread(ic.Seeds())
		gSeeds, _ := greedy.Select(st, ws, k, nil)
		sums["Greedy"] += spread(gSeeds)
		iSeeds, _ := imm.Select(g, k, imm.Options{Seed: sc.Seed})
		sums["IMM"] += spread(iSeeds)
		sums["UBI"] += spread(ubiTr.Update(g))
	}
	for m := range sums {
		sums[m] /= float64(counts)
	}
	return sums
}

// throughputRun holds per-method throughputs in actions/second.
type throughputRun map[string]float64

// runThroughput measures all five methods on ds with the given window/slide
// sizes. SIC and IC are timed over the post-warm-up stream (truncated to a
// measurement span — throughput needs far fewer slides than quality); the
// recompute-per-slide baselines (Greedy, IMM, UBI) are timed at the sample
// points and converted to actions/second as L divided by the per-slide
// recompute time — the paper's §6.1 performance metric. Greedy is the
// paper's naive O(k·|U|)-evaluation variant (greedy.SelectNaive).
func runThroughput(ds Dataset, sc Scale, k, n, l int, beta float64) throughputRun {
	if span := n + max(10*l, 4000); span < len(ds.Actions) {
		ds.Actions = ds.Actions[:span]
	}
	out := throughputRun{}
	out["SIC"] = runFramework(ds, sim.SIC, k, n, l, beta, sc.BatchSize).Throughput
	out["IC"] = runFramework(ds, sim.IC, k, n, l, beta, sc.BatchSize).Throughput

	// Baselines: replay the window with a bare stream index, then time one
	// recompute per sample point.
	st := stream.New()
	ubiTr := ubi.New(k, ubi.Options{Seed: sc.Seed, Rounds: sc.MCRounds / 2})
	points := samplePoints(len(ds.Actions), n, l, sc.Samples)
	next := 0
	var tGreedy, tIMM, tUBI time.Duration
	samples := 0
	for i, a := range ds.Actions {
		if _, err := st.Ingest(a); err != nil {
			panic(err)
		}
		ws := a.ID - stream.ActionID(n) + 1
		st.Advance(ws)
		if next >= len(points) || i+1 != points[next] {
			continue
		}
		next++
		samples++

		start := time.Now()
		greedy.SelectNaive(st, ws, k, nil)
		tGreedy += time.Since(start)

		// Graph construction is part of both IMM's and UBI's per-slide
		// cost: the paper regenerates G_t for every update.
		start = time.Now()
		g := graph.FromWindow(st, ws)
		tGraph := time.Since(start)

		start = time.Now()
		imm.Select(g, k, imm.Options{Seed: sc.Seed})
		tIMM += time.Since(start) + tGraph

		start = time.Now()
		ubiTr.Update(g)
		tUBI += time.Since(start) + tGraph
	}
	perSlide := func(total time.Duration) float64 {
		if samples == 0 || total <= 0 {
			return 0
		}
		per := total.Seconds() / float64(samples)
		return float64(l) / per
	}
	out["Greedy"] = perSlide(tGreedy)
	out["IMM"] = perSlide(tIMM)
	out["UBI"] = perSlide(tUBI)
	return out
}

// shrink scales down a Scale by factor f for the expensive sweep
// experiments (IC with hundreds of checkpoints), preserving ratios.
func shrink(sc Scale, f int) Scale {
	out := sc
	out.Users = max(sc.Users/f, 200)
	out.StreamLen = max(sc.StreamLen/f, 2000)
	out.Window = max(sc.Window/f, 500)
	out.Slide = max(sc.Slide, 1)
	out.K = max(sc.K/2, 5)
	return out
}

package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the harness must agree with.
type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []gatedMetric           `json:"end_to_end"`
	PerLayer  []gatedMetric           `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

func metricNames(ms []gatedMetric) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.Name)
	}
	return out
}

// BENCHMARK.json names the workloads and gated metrics a second time; the
// two lists must not drift apart.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	doc := readBenchmarkJSON(t)
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		if w.gated {
			have = append(have, w.name)
		}
	}
	if !slices.Equal(names, have) {
		t.Errorf("BENCHMARK.json workloads %v, harness's gated workloads %v", names, have)
	}
	if got := metricNames(doc.EndToEnd); !slices.Equal(got, e2eMetrics) {
		t.Errorf("BENCHMARK.json end_to_end %v, harness %v", got, e2eMetrics)
	}
}

// TestSmokeAllWorkloads is one end-to-end pass of every workload at 1/20
// size against the real binaries, layer ladder included: it keeps the
// harness and its correctness gates honest without measuring anything.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots real servers")
	}
	workDir := t.TempDir()
	binDir, _, err := buildServers(workDir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(killAllChildren)
	for _, w := range workloads {
		w := w.scaled(20)
		t.Run(w.name, func(t *testing.T) {
			o := runOpts{binDir: binDir, workDir: workDir, seed: 7, seconds: 1.5, setups: 1, probes: true}
			res, err := runE2E(context.Background(), w, o)
			if err != nil {
				t.Fatal(err)
			}
			for _, g := range res.gates {
				t.Errorf("gate violated: %s", g)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Errorf("%d of %d operations failed", res.failed, res.attempted)
			}
			for _, name := range append(slices.Clone(e2eMetrics), recoveryMetric) {
				m, ok := res.metrics[name]
				// /proc CPU time comes in 10 ms ticks: a phase this short
				// can honestly read 0.
				if zeroOK := name == "cpu_us_per_action"; !ok || m.Value < 0 || (m.Value == 0 && !zeroOK) {
					t.Errorf("end-to-end metric %s = %v (present %v): must be measured and never zero", name, m.Value, ok)
				}
			}
			tracePath := filepath.Join(workDir, "trace-"+w.name+".json")
			if err := runLadder(w, o, tracePath, res); err != nil {
				t.Fatal(err)
			}
			if info, err := os.Stat(tracePath); err != nil || info.Size() == 0 {
				t.Errorf("no trace written: %v", err)
			}
			var perLayer []string
			for name := range res.metrics {
				if !slices.Contains(e2eMetrics, name) && name != "client.build_s" { // build_s is added by main
					perLayer = append(perLayer, name)
				}
			}
			sort.Strings(perLayer)
			want := metricNames(readBenchmarkJSON(t).PerLayer)
			want = slices.DeleteFunc(want, func(n string) bool { return n == "client.build_s" })
			sort.Strings(want)
			if !slices.Equal(perLayer, want) {
				t.Errorf("per-layer metrics measured:\n%v\nBENCHMARK.json per_layer:\n%v", perLayer, want)
			}
			spilled := res.metrics["stream.spills"].Value > 0
			if wantSpill := w.memoryBudget > 0; spilled != wantSpill {
				t.Errorf("stream.spills = %v on a workload with memory budget %d", res.metrics["stream.spills"].Value, w.memoryBudget)
			}
			// The router rungs are timed only where there is a router;
			// a measured time is never exactly 0.
			routed := res.metrics["router.seeds_merge_ms"].Value != 0
			if wantRouter := w.shards > 0; routed != wantRouter {
				t.Errorf("router.seeds_merge_ms = %v on a workload with %d shards", res.metrics["router.seeds_merge_ms"].Value, w.shards)
			}
		})
	}
}

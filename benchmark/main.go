// Command benchmark is the client-side yardstick for the serving stack: it
// builds the real simserve and simrouter binaries, generates a seeded action
// stream, drives the servers over loopback through api.Client with one
// ingesting and one reading connection, checks every answer, and prints
// every metric by name with its unit. See README.md.
//
// It must be started from its own directory (the repository root is ".."):
//
//	bash benchmark/run.sh                                   # whole suite + traced runs
//	bash benchmark/run.sh --workload bulk --seed 1 --seconds 30 --trace 0
//	bash benchmark/run.sh -aa -runs 10                      # A/A noise check
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
)

// e2eMetrics are the gated end-to-end metrics, in print order; BENCHMARK.json
// carries their units, directions and bounds.
var e2eMetrics = []string{
	"setup_s", "ingest_actions_per_s", "ingest_ack_ms_p50", "seeds_ms_p50", "query_ms_p50",
	"cpu_us_per_action", "peak_rss_mb", "seed_value_ratio",
}

// recoveryMetric is the ninth thing a client sees, measured and printed on
// every run but gated by nothing: nine sub-second crash recoveries sample a
// few seconds of this box's speed, and ten runs of them spread past the
// largest bound BENCHMARK.json may carry (README.md, "Noise"). It is listed
// there under per_layer, so the result object carries it with --trace 1.
const recoveryMetric = "recovery_s"

// exactCounters are the metrics that count work, not time. The measured
// phase is a fixed number of actions, so the same seed and --seconds must
// reproduce them bit for bit on any machine, however fast: every run prints
// them on one line and -aa fails if its two halves disagree on any.
var exactCounters = []string{
	"client.measured_actions", "core.elements_fed_per_action", "core.checkpoints_avg",
	"server.recovered_wal_actions", "stream.spills", "seed_value_ratio",
}

// config is the parsed command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	scale    string
	aa       bool
	runs     int
	workDir  string
}

func main() {
	var c config
	flag.StringVar(&c.workload, "workload", "", "workload to run (bulk, trickle, cluster, spill); empty = every workload, untraced then traced")
	flag.Int64Var(&c.seed, "seed", 1, "stream seed: the same seed gives the same inputs")
	flag.Float64Var(&c.seconds, "seconds", 30, "size of the measured phase: that many seconds of the workload's offered (open loop) or usual (closed loop) rate, as a fixed number of actions")
	flag.IntVar(&c.trace, "trace", 0, "0 = end-to-end metrics; 1 = per-layer metrics (end-to-end run with probes, then the in-process layer ladder)")
	flag.StringVar(&c.scale, "scale", "full", "full, or smoke (1/20 size: every code path, meaningless numbers)")
	flag.BoolVar(&c.aa, "aa", false, "A/A check: run the gated workloads twice on the same seeds (-runs each, second half in reverse order) and hold spreads, |difference of medians| and exact counters against BENCHMARK.json")
	flag.IntVar(&c.runs, "runs", 10, "with -aa: runs (seeds) per workload in each of the two halves")
	flag.StringVar(&c.workDir, "work-dir", filepath.Join("..", ".bench_build"), "scratch directory for binaries, data dirs and trace-<workload>.json (must be on a real filesystem)")
	flag.Parse()

	// Every exit path kills and reaps the children: normal return and
	// failures go through exit(), SIGINT/SIGTERM through the handler.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigs
		killAllChildren()
		os.Exit(130)
	}()

	if err := run(c); err != nil {
		fmt.Fprintf(os.Stderr, "bench: FAILED: %v\n", err)
		exit(1)
	}
	exit(0)
}

func exit(code int) {
	killAllChildren()
	os.Exit(code)
}

func run(c config) error {
	div := 1
	switch c.scale {
	case "full":
	case "smoke":
		div = 20
	default:
		return fmt.Errorf("unknown -scale %q (want full or smoke)", c.scale)
	}
	if err := os.MkdirAll(c.workDir, 0o755); err != nil {
		return err
	}
	if c.aa {
		return runAA(c)
	}
	fmt.Println(envBlock(c.workDir))
	binDir, buildS, err := buildServers(c.workDir)
	if err != nil {
		return err
	}
	ctx := context.Background()
	o := runOpts{binDir: binDir, workDir: c.workDir, seed: c.seed, seconds: c.seconds / float64(div), setups: 3}

	if c.workload != "" {
		w, ok := workloadByName(c.workload)
		if !ok {
			return fmt.Errorf("unknown -workload %q", c.workload)
		}
		return runOne(ctx, w.scaled(div), o, c, buildS)
	}
	// Whole suite: every workload untraced (the gated numbers), then traced.
	for _, trace := range []int{0, 1} {
		c.trace = trace
		for _, w := range workloads {
			if err := runOne(ctx, w.scaled(div), o, c, buildS); err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
		}
	}
	return nil
}

// runOne performs one contract run: the end-to-end run, plus the layer
// ladder when tracing, then the metrics — human-readable first, and as the
// last line of standard output the JSON object the driver reads.
func runOne(ctx context.Context, w workload, o runOpts, c config, buildS float64) error {
	o.probes = c.trace == 1
	logf("%s: seed %d, %d measured batches of %d (%.2f s at the usual rate), trace %d",
		w.name, o.seed, w.measuredBatches(o.seconds), w.batch, o.seconds, c.trace)
	res, err := runE2E(ctx, w, o)
	if err != nil {
		return err
	}
	names := e2eMetrics
	if c.trace == 1 {
		res.set("client.build_s", buildS, "s")
		if err := runLadder(w, o, filepath.Join(c.workDir, "trace-"+w.name+".json"), res); err != nil {
			return fmt.Errorf("layer ladder: %w", err)
		}
		names = names[:0:0]
		for name := range res.metrics {
			if !slices.Contains(e2eMetrics, name) {
				names = append(names, name)
			}
		}
		sort.Strings(names)
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metric{}}
	fmt.Printf("workload %s seed %d: %d operations attempted, %d failed\n", w.name, o.seed, res.attempted, res.failed)
	for _, name := range names {
		m, ok := res.metrics[name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", name)
		}
		out.Metrics[name] = m
		fmt.Printf("  %-36s %14.4f %s\n", name, m.Value, m.Unit)
	}
	if c.trace == 0 {
		m := res.metrics[recoveryMetric]
		fmt.Printf("  %-36s %14.4f %s (not gated)\n", recoveryMetric, m.Value, m.Unit)
	}
	for _, g := range res.gates {
		fmt.Printf("  GATE VIOLATED: %s\n", g)
	}
	exact := map[string]float64{}
	for _, name := range exactCounters {
		exact[name] = res.metrics[name].Value
	}
	line, err := json.Marshal(exact)
	if err != nil {
		return err
	}
	fmt.Printf("exact %s\n", line)
	line, err = json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !out.Correct {
		return fmt.Errorf("%s: %d of %d operations failed or answered wrongly", w.name, res.failed, res.attempted)
	}
	return nil
}

// buildServers compiles cmd/simserve and cmd/simrouter from the repository
// this module sits in (its go.mod replaces repro with "..") into
// <workDir>/bin and returns that directory and the build time.
func buildServers(workDir string) (string, float64, error) {
	binDir, err := filepath.Abs(filepath.Join(workDir, "bin"))
	if err != nil {
		return "", 0, err
	}
	began := time.Now()
	cmd := exec.Command("go", "build", "-o", binDir+string(filepath.Separator), "repro/cmd/simserve", "repro/cmd/simrouter")
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", 0, fmt.Errorf("building the servers (run from the benchmark directory of a full checkout): %w", err)
	}
	return binDir, time.Since(began).Seconds(), nil
}

// envBlock describes the machine and build every run is made on.
func envBlock(workDir string) string {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return fmt.Sprintf("env: nproc=%d GOMAXPROCS=%d go=%s kernel=%s fs(%s)=%s commit=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(),
		strings.TrimSpace(string(kernel)), workDir, fsType(workDir), commit)
}

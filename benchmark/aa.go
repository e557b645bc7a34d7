package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// gatedMetric is one end_to_end entry of BENCHMARK.json.
type gatedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// readBounds loads the gated metrics from the repository's BENCHMARK.json.
func readBounds() ([]gatedMetric, error) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []gatedMetric `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return doc.EndToEnd, nil
}

// quartiles returns the first and third quartile of xs exactly as Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method) does — the
// rule the driver's acceptance check uses.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = min(max(j, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// runAA is the A/A check: the same code measured twice on the same inputs.
// Each half runs every gated workload (or the one -workload names) c.runs
// times, every run a fresh process, run r on seed c.seed+r in both halves,
// the second half in reverse workload order. For every workload × gated
// metric it prints both medians, both spreads, |difference of the medians|
// as a share of the first, and the bound. It fails if a spread (setup_s
// excepted, as in the driver's rule) or a difference — in either direction:
// the two halves are the same code, so a faster second half is as much
// noise as a slower one — exceeds the bound, or if the two runs of one seed
// disagree on any exact counter.
func runAA(c config) error {
	bounds, err := readBounds()
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var suite []workload
	for _, w := range workloads {
		if w.name == c.workload || (c.workload == "" && w.gated) {
			suite = append(suite, w)
		}
	}
	if len(suite) == 0 {
		return fmt.Errorf("unknown -workload %q", c.workload)
	}
	// values[half][workload][metric] = one value per run; exact[half][workload][run]
	var values [2]map[string]map[string][]float64
	var exact [2]map[string][]string
	for half := 0; half < 2; half++ {
		values[half] = map[string]map[string][]float64{}
		exact[half] = map[string][]string{}
		order := slices.Clone(suite)
		if half == 1 {
			slices.Reverse(order)
		}
		for _, w := range order {
			values[half][w.name] = map[string][]float64{}
			for r := 0; r < c.runs; r++ {
				seed := c.seed + int64(r)
				m, counters, err := childRun(self, c, w.name, seed)
				if err != nil {
					return fmt.Errorf("half %d %s seed %d: %w", half+1, w.name, seed, err)
				}
				exact[half][w.name] = append(exact[half][w.name], counters)
				line := fmt.Sprintf("half %d %s seed %d:", half+1, w.name, seed)
				for _, g := range bounds {
					values[half][w.name][g.Name] = append(values[half][w.name][g.Name], m[g.Name].Value)
					line += fmt.Sprintf(" %s=%.4g", g.Name, m[g.Name].Value)
				}
				fmt.Println(line)
			}
		}
	}

	breaches := 0
	fmt.Printf("%-8s %-22s %12s %12s %8s %8s %8s %6s\n", "workload", "metric", "median A", "median B", "spread A", "spread B", "|diff|", "bound")
	for _, w := range suite {
		for _, g := range bounds {
			a, b := values[0][w.name][g.Name], values[1][w.name][g.Name]
			ma, mb := median(a), median(b)
			diff := math.Abs(mb-ma) / ma
			sa, sb := spread(a), spread(b)
			verdict := ""
			if diff > g.Bound || (g.Name != "setup_s" && max(sa, sb) > g.Bound) {
				verdict = "  BREACH"
				breaches++
			}
			fmt.Printf("%-8s %-22s %12.4f %12.4f %8.4f %8.4f %8.4f %6.2f%s\n", w.name, g.Name, ma, mb, sa, sb, diff, g.Bound, verdict)
		}
		for r := range exact[0][w.name] {
			if ea, eb := exact[0][w.name][r], exact[1][w.name][r]; ea != eb {
				fmt.Printf("%-8s seed %d: exact counters differ  BREACH\n  A %s\n  B %s\n", w.name, c.seed+int64(r), ea, eb)
				breaches++
			}
		}
	}
	if breaches > 0 {
		return fmt.Errorf("A/A: %d cells outside their bound or counters that did not repeat", breaches)
	}
	fmt.Println("A/A: every spread and difference within its bound; exact counters identical")
	return nil
}

// childRun runs one contract run in a fresh process and parses its last two
// lines of standard output: the exact counters and the result object.
func childRun(self string, c config, workload string, seed int64) (map[string]metric, string, error) {
	cmd := exec.Command(self,
		"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(c.seconds, 'g', -1, 64), "-trace", "0",
		"-scale", c.scale, "-work-dir", c.workDir)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, "", err
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) < 2 || !strings.HasPrefix(lines[len(lines)-2], "exact ") {
		return nil, "", fmt.Errorf("run did not end with its exact counters and result lines")
	}
	var res struct {
		Correct bool              `json:"correct"`
		Metrics map[string]metric `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, "", fmt.Errorf("last output line is not the result object: %w", err)
	}
	if !res.Correct {
		return nil, "", fmt.Errorf("run reported incorrect results")
	}
	return res.Metrics, lines[len(lines)-2], nil
}

// Package bench is the experiment harness: one runnable experiment per
// table and figure of the paper's evaluation (§6). Each experiment prints
// the same series the paper plots, at laptop scale (ARCHITECTURE.md "Paper
// section → package map" places it; README lists the experiment IDs).
package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/gen"
	"repro/internal/stream"
)

// Table is one experiment's printable result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Fprint renders the table with aligned columns.
func (t Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Scale holds the scaled-down experiment sizes. The paper's defaults
// (Table 4: N=500K, L=5K, k=50, |U|=2M, 10–48M actions) are divided by
// ScaleDefault's factor so the full suite completes on a laptop while
// preserving every ratio the figures depend on.
type Scale struct {
	// Users is the default |U| per dataset.
	Users int
	// StreamLen is the number of actions generated per dataset.
	StreamLen int
	// Window is the default window size N.
	Window int
	// Slide is the default slide length L.
	Slide int
	// K is the default seed budget.
	K int
	// Beta is the default efficiency knob (paper's bold default 0.1 for
	// quality plots; throughput plots sweep it).
	Beta float64
	// MCRounds is the Monte-Carlo rounds per spread estimate (paper: 10,000).
	MCRounds int
	// Samples is the number of window snapshots evaluated in quality
	// experiments.
	Samples int
	// Seed fixes all randomness.
	Seed int64
	// BatchSize is the ingestion batch size used by the streaming runs
	// (sim.Config.BatchSize). 1 = per-action, the legacy default.
	BatchSize int
}

// ScaleDefault divides the paper's sizes by 50: N=10K, L=100, 60K-action
// streams. Suitable for cmd/simbench on a laptop (minutes).
func ScaleDefault() Scale {
	return Scale{
		Users:     20000,
		StreamLen: 60000,
		Window:    10000,
		Slide:     100,
		K:         25,
		Beta:      0.1,
		MCRounds:  500,
		Samples:   4,
		Seed:      1,
		BatchSize: 1,
	}
}

// ScaleSmoke is a fast configuration for tests and testing.B benchmarks
// (seconds).
func ScaleSmoke() Scale {
	return Scale{
		Users:     2000,
		StreamLen: 8000,
		Window:    2000,
		Slide:     50,
		K:         10,
		Beta:      0.1,
		MCRounds:  100,
		Samples:   2,
		Seed:      1,
		BatchSize: 1,
	}
}

// Dataset is one generated action stream.
type Dataset struct {
	Name    string
	Users   int
	Actions []stream.Action
}

// Datasets materializes the four evaluation datasets of §6.1 at the given
// scale: Reddit-like, Twitter-like, SYN-O and SYN-N.
func Datasets(sc Scale) []Dataset {
	cfgs := []gen.Config{
		gen.RedditLike(sc.Users, sc.StreamLen, sc.Window, sc.Seed),
		gen.TwitterLike(sc.Users, sc.StreamLen, sc.Window, sc.Seed),
		gen.SynO(sc.Users, sc.StreamLen, sc.Window, sc.Seed),
		gen.SynN(sc.Users, sc.StreamLen, sc.Window, sc.Seed),
	}
	out := make([]Dataset, len(cfgs))
	for i, c := range cfgs {
		out[i] = Dataset{Name: c.Name, Users: c.Users, Actions: gen.Stream(c)}
	}
	return out
}

// Experiment is a registered reproduction target.
type Experiment struct {
	ID    string
	Title string
	Run   func(sc Scale) Table
}

var registry = map[string]Experiment{}

func register(e Experiment) { registry[e.ID] = e }

// Experiments lists the registered experiment IDs in order.
func Experiments() []Experiment {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]Experiment, len(ids))
	for i, id := range ids {
		out[i] = registry[id]
	}
	return out
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// Run executes one experiment and prints its table.
func Run(id string, sc Scale, w io.Writer) error {
	e, ok := Lookup(id)
	if !ok {
		return fmt.Errorf("bench: unknown experiment %q", id)
	}
	e.Run(sc).Fprint(w)
	return nil
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func i0(v int) string     { return fmt.Sprintf("%d", v) }

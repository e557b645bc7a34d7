package sim_test

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"text/tabwriter"

	"repro/internal/bench"
	"repro/sim"
)

var updateLedger = flag.Bool("update", false, "rewrite testdata/ledger.golden from this run")

const ledgerGolden = "testdata/ledger.golden"

// ledgerCounts are the ledger's exact columns: totals read from the
// framework's Stats at the end of a row's run, and its final value. They are
// a pure function of the stream and the configuration, so any difference
// from the golden is a change in what the engine does.
var ledgerCounts = []string{
	"actions", "value", "cp_created", "cp_deleted", "cp_avg",
	"elements_fed", "elements_unchanged", "slot_visits", "scans", "scan_members",
}

// The measured columns, and how far a run may read from the golden. Over 24
// runs of this test on one machine (go1.24.0, 2 vCPU Xeon) every row's
// allocs/action spread by at most 0.001 and its bytes/action by at most
// 0.7 %; the tolerances leave room for another machine or Go release, and
// one allocation more per action still fails every row.
const (
	allocsTolerance = 0.1  // allocs per action, absolute
	bytesTolerance  = 0.05 // bytes per action, relative
)

// The ceilings carried over from the per-action allocation and byte tests
// this ledger replaces. They are checked against the run, not the golden,
// so -update cannot write past them.
const (
	allocsCeiling = 2.5  // allocs per action: SYN-O SIC b1, IC b1, SIC b50
	bytesCeiling  = 1000 // bytes per action: bulk b1
)

// ledgerRow is one configuration of the ledger: cfg fed actions in
// ProcessAll calls of request actions each, with allocations counted from
// action warm on.
type ledgerRow struct {
	name      string
	cfg       sim.Config
	actions   []sim.Action
	request   int
	warm      int
	maxAllocs float64 // 0: no ceiling
	maxBytes  float64 // 0: no ceiling
}

// ledgerRows are the four evaluation datasets at bench.ScaleSmoke under SIC
// and IC, one slide per ProcessAll call; SYN-O's SIC again with BatchSize
// set to the slide; and the benchmark's bulk-shaped tracker at batch 1 and
// at batch 2000, in its 2000-action requests, its allocations counted past
// the warm-up window.
func ledgerRows() []ledgerRow {
	sc := bench.ScaleSmoke()
	smoke := func(ds bench.Dataset, fw sim.Framework, batch int) ledgerRow {
		r := ledgerRow{
			name: fmt.Sprintf("%s/%v/b%d", ds.Name, fw, batch),
			cfg: sim.Config{
				K: sc.K, WindowSize: sc.Window, Slide: sc.Slide, Beta: sc.Beta,
				Framework: fw, BatchSize: batch,
			},
			actions: ds.Actions,
			request: sc.Slide,
		}
		if ds.Name == "SYN-O" {
			r.maxAllocs = allocsCeiling
		}
		return r
	}
	var rows []ledgerRow
	for _, ds := range bench.Datasets(sc) {
		rows = append(rows, smoke(ds, sim.SIC, 1), smoke(ds, sim.IC, 1))
		if ds.Name == "SYN-O" {
			rows = append(rows, smoke(ds, sim.SIC, sc.Slide))
		}
	}
	const window, request = 8000, 2000
	bulk := bulkShapeStream()
	for _, batch := range []int{1, request} {
		r := ledgerRow{
			name: fmt.Sprintf("bulk/SIC/b%d", batch), cfg: bulkShapeConfig(batch),
			actions: bulk, request: request, warm: window,
		}
		if batch == 1 {
			r.maxBytes = bytesCeiling
		}
		rows = append(rows, r)
	}
	return rows
}

// ledgerEntry is one row's reading: the exact columns as formatted, then
// the measured ones.
type ledgerEntry struct {
	counts           []string
	allocs, perBytes float64
}

// run feeds r's stream and reads its columns.
func (r ledgerRow) run(t *testing.T) ledgerEntry {
	tr, err := sim.New(r.cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	var m0, m1 runtime.MemStats
	for off := 0; off < len(r.actions); off += r.request {
		if off == r.warm {
			runtime.GC()
			runtime.ReadMemStats(&m0)
		}
		if err := tr.ProcessAll(r.actions[off:min(off+r.request, len(r.actions))]); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&m1)
	measured := float64(len(r.actions) - r.warm)
	st := tr.Internal().Stats()
	return ledgerEntry{
		counts: []string{
			strconv.FormatInt(st.Processed, 10),
			strconv.FormatFloat(tr.Value(), 'g', -1, 64),
			strconv.FormatInt(st.Created, 10),
			strconv.FormatInt(st.Deleted, 10),
			strconv.FormatFloat(st.AvgCheckpoints, 'f', 4, 64),
			strconv.FormatInt(st.ElementsFed, 10),
			strconv.FormatInt(st.ElementsUnchanged, 10),
			strconv.FormatInt(st.SlotVisits, 10),
			strconv.FormatInt(st.Scans, 10),
			strconv.FormatInt(st.ScanMembers, 10),
		},
		allocs:   float64(m1.Mallocs-m0.Mallocs) / measured,
		perBytes: float64(m1.TotalAlloc-m0.TotalAlloc) / measured,
	}
}

// TestWorkLedger is the record of the engine's work per configuration:
// what each checkpoint was fed, how many sieve instance slots those
// elements swept, how many influence sets were scanned and how many
// members the scans probed — the O(d·g·N) update cost of §4.2 and §5,
// counted rather than timed — next to the allocations and bytes per action
// that pay for it. testdata/ledger.golden holds the committed reading. The
// count columns must match it exactly: a refactor that decides the same
// moves none of them, and a change that moves one states the delta. The
// allocs and bytes columns must stay within the stated tolerances, and are
// skipped under the race detector, which allocates. go test ./sim -run
// TestWorkLedger -update rewrites the golden (not under -race). cp_avg is
// the one fraction among the counts; it is compared as written, to four
// places.
func TestWorkLedger(t *testing.T) {
	if *updateLedger && raceEnabled {
		t.Fatal("-update measures allocations: run it without -race")
	}
	var want map[string]ledgerEntry
	if !*updateLedger {
		data, err := os.ReadFile(ledgerGolden)
		if err != nil {
			t.Fatal(err)
		}
		if want, err = parseLedger(data); err != nil {
			t.Fatal(err)
		}
	}
	rows := ledgerRows()
	if want != nil && len(want) != len(rows) {
		t.Errorf("golden has %d rows, the ledger runs %d", len(want), len(rows))
	}
	got := make(map[string]ledgerEntry, len(rows))
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			g := r.run(t)
			got[r.name] = g
			if !raceEnabled && r.maxAllocs > 0 && g.allocs > r.maxAllocs {
				t.Errorf("%.2f allocs/action, ceiling %.1f", g.allocs, r.maxAllocs)
			}
			if !raceEnabled && r.maxBytes > 0 && g.perBytes > r.maxBytes {
				t.Errorf("%.0f B/action, ceiling %.0f", g.perBytes, r.maxBytes)
			}
			if *updateLedger {
				return
			}
			w, ok := want[r.name]
			if !ok {
				t.Fatal("no golden row")
			}
			for i, col := range ledgerCounts {
				if g.counts[i] != w.counts[i] {
					t.Errorf("%s = %s, golden %s", col, g.counts[i], w.counts[i])
				}
			}
			if raceEnabled {
				return
			}
			if math.Abs(g.allocs-w.allocs) > allocsTolerance {
				t.Errorf("%.3f allocs/action, golden %.3f ± %.2f", g.allocs, w.allocs, allocsTolerance)
			}
			if math.Abs(g.perBytes-w.perBytes) > bytesTolerance*w.perBytes {
				t.Errorf("%.1f B/action, golden %.1f ± %.0f%%", g.perBytes, w.perBytes, 100*bytesTolerance)
			}
		})
	}
	if *updateLedger {
		if t.Failed() {
			t.Fatal("golden not rewritten: a row failed")
		}
		if len(got) != len(rows) {
			t.Fatalf("-update ran %d of %d rows: rewrite the golden from a run of every row", len(got), len(rows))
		}
		if err := os.WriteFile(ledgerGolden, formatLedger(rows, got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// formatLedger writes the golden: a header of comments, then one row per
// configuration, columns separated by spaces.
func formatLedger(rows []ledgerRow, got map[string]ledgerEntry) []byte {
	var buf bytes.Buffer
	buf.WriteString("# Work ledger: written by go test ./sim -run TestWorkLedger -update.\n")
	buf.WriteString("# Count columns are totals over the run and compare exactly; allocs and\n")
	buf.WriteString("# bytes are per action past the row's warm-up, within the test's tolerances.\n")
	tw := tabwriter.NewWriter(&buf, 0, 0, 1, ' ', 0)
	fmt.Fprintf(tw, "# row\t%s\tallocs/action\tB/action\n", strings.Join(ledgerCounts, "\t"))
	for _, r := range rows {
		e := got[r.name]
		fmt.Fprintf(tw, "%s\t%s\t%.3f\t%.1f\n", r.name, strings.Join(e.counts, "\t"), e.allocs, e.perBytes)
	}
	tw.Flush()
	return buf.Bytes()
}

// parseLedger reads what formatLedger writes.
func parseLedger(data []byte) (map[string]ledgerEntry, error) {
	out := map[string]ledgerEntry{}
	for i, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 1+len(ledgerCounts)+2 {
			return nil, fmt.Errorf("%s:%d: %d fields, want %d", ledgerGolden, i+1, len(f), 1+len(ledgerCounts)+2)
		}
		e := ledgerEntry{counts: f[1 : 1+len(ledgerCounts)]}
		var err1, err2 error
		e.allocs, err1 = strconv.ParseFloat(f[len(f)-2], 64)
		e.perBytes, err2 = strconv.ParseFloat(f[len(f)-1], 64)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("%s:%d: bad measured columns %q", ledgerGolden, i+1, f[len(f)-2:])
		}
		out[f[0]] = e
	}
	return out, nil
}

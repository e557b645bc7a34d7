package bench

import (
	"bytes"
	"strings"
	"testing"

	"repro/sim"
)

func TestSamplePoints(t *testing.T) {
	pts := samplePoints(1000, 200, 50, 3)
	if len(pts) == 0 {
		t.Fatal("no sample points")
	}
	if pts[0] < 200 {
		t.Fatalf("first point %d inside warm-up", pts[0])
	}
	for i, p := range pts {
		if p%50 != 0 {
			t.Fatalf("point %d not on a slide boundary", p)
		}
		if i > 0 && p <= pts[i-1] {
			t.Fatalf("points not increasing: %v", pts)
		}
		if p > 1000 {
			t.Fatalf("point %d beyond stream", p)
		}
	}
	// A stream shorter than the window still yields a valid point.
	pts = samplePoints(100, 200, 50, 2)
	if len(pts) == 0 || pts[0] > 100 {
		t.Fatalf("short stream points = %v", pts)
	}
}

func TestDatasetsShape(t *testing.T) {
	sc := ScaleSmoke()
	dss := Datasets(sc)
	if len(dss) != 4 {
		t.Fatalf("datasets = %d, want 4", len(dss))
	}
	names := []string{"Reddit", "Twitter", "SYN-O", "SYN-N"}
	for i, ds := range dss {
		if ds.Name != names[i] {
			t.Errorf("dataset %d = %s, want %s", i, ds.Name, names[i])
		}
		if len(ds.Actions) != sc.StreamLen {
			t.Errorf("%s: %d actions, want %d", ds.Name, len(ds.Actions), sc.StreamLen)
		}
	}
}

func TestRunFrameworkProducesMetrics(t *testing.T) {
	sc := ScaleSmoke()
	ds := Datasets(sc)[3] // SYN-N is the cheapest (short distances)
	m := runFramework(ds, sim.SIC, sc.K, sc.Window, sc.Slide, 0.2, 1)
	if m.AvgValue <= 0 {
		t.Errorf("AvgValue = %v", m.AvgValue)
	}
	if m.AvgCheckpoints <= 0 {
		t.Errorf("AvgCheckpoints = %v", m.AvgCheckpoints)
	}
	if m.Throughput <= 0 {
		t.Errorf("Throughput = %v", m.Throughput)
	}
}

func TestRunQualityCoversAllMethods(t *testing.T) {
	sc := ScaleSmoke()
	sc.MCRounds = 50
	sc.Samples = 1
	ds := Datasets(sc)[3]
	q := runQuality(ds, sc, 5)
	for _, m := range methodNames {
		if q[m] <= 0 {
			t.Errorf("method %s spread = %v", m, q[m])
		}
	}
	// Loose Fig 8 shape on the smoke scale: SIC within half of Greedy.
	if q["SIC"] < 0.5*q["Greedy"] {
		t.Errorf("SIC %.1f below half of Greedy %.1f", q["SIC"], q["Greedy"])
	}
}

func TestRunThroughputCoversAllMethods(t *testing.T) {
	sc := ScaleSmoke()
	sc.MCRounds = 50
	sc.Samples = 1
	ds := Datasets(sc)[3]
	tp := runThroughput(ds, sc, 5, sc.Window, sc.Slide, 0.2)
	for _, m := range methodNames {
		if tp[m] <= 0 {
			t.Errorf("method %s throughput = %v", m, tp[m])
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"abl-fastpath", "abl-greedy", "abl-oracle", "fig10", "fig11", "fig12", "fig2-4", "fig5", "fig6", "fig7", "fig8", "fig9", "mem", "table2", "table3"}
	got := Experiments()
	if len(got) != len(want) {
		t.Fatalf("experiments = %d, want %d", len(got), len(want))
	}
	for i, e := range got {
		if e.ID != want[i] {
			t.Errorf("experiment %d = %s, want %s", i, e.ID, want[i])
		}
	}
	if _, ok := Lookup("fig5"); !ok {
		t.Error("Lookup(fig5) failed")
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("Lookup(nope) succeeded")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := Run("nope", ScaleSmoke(), &bytes.Buffer{}); err == nil {
		t.Fatal("expected error")
	}
}

func TestTable3Runs(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("table3", ScaleSmoke(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, ds := range []string{"Reddit", "Twitter", "SYN-O", "SYN-N"} {
		if !strings.Contains(out, ds) {
			t.Errorf("table3 output missing %s:\n%s", ds, out)
		}
	}
}

func TestTable2Runs(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("table2", ScaleSmoke(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, o := range []string{"SieveStreaming", "ThresholdStream", "BlogWatch", "MkC"} {
		if !strings.Contains(out, o) {
			t.Errorf("table2 output missing %s:\n%s", o, out)
		}
	}
}

func TestTableFprintAlignment(t *testing.T) {
	tab := Table{
		ID: "x", Title: "t",
		Header: []string{"a", "longcol"},
		Rows:   [][]string{{"wide-cell", "1"}},
		Notes:  []string{"n1"},
	}
	var buf bytes.Buffer
	tab.Fprint(&buf)
	out := buf.String()
	if !strings.Contains(out, "== x: t ==") || !strings.Contains(out, "note: n1") {
		t.Fatalf("bad render:\n%s", out)
	}
}

package bench

import (
	"strings"
	"testing"
)

func snap(recs ...Record) Snapshot { return Snapshot{Records: recs} }

func TestCompareSnapshots(t *testing.T) {
	base := snap(
		Record{Experiment: "tput", Name: "SIC", NsPerOp: 100, AllocsPerOp: 10},
		Record{Experiment: "tput", Name: "IC", NsPerOp: 200, AllocsPerOp: 20},
		Record{Experiment: "tput", Name: "total", NsPerOp: 1e9, AllocsPerOp: 1e6},
	)

	t.Run("within tolerance passes", func(t *testing.T) {
		fresh := snap(
			Record{Experiment: "tput", Name: "SIC", NsPerOp: 120, AllocsPerOp: 12},
			Record{Experiment: "tput", Name: "IC", NsPerOp: 280, AllocsPerOp: 24},
		)
		regs, matched := CompareSnapshots(base, fresh, 0.25, 0.50)
		if matched != 2 {
			t.Fatalf("matched = %d, want 2", matched)
		}
		if len(regs) != 0 {
			t.Fatalf("unexpected regressions: %v", regs)
		}
	})

	t.Run("alloc regression caught", func(t *testing.T) {
		fresh := snap(Record{Experiment: "tput", Name: "SIC", NsPerOp: 100, AllocsPerOp: 13})
		regs, _ := CompareSnapshots(base, fresh, 0.25, 0.50)
		if len(regs) != 1 || regs[0].Metric != "allocs/op" {
			t.Fatalf("regs = %v, want one allocs/op regression", regs)
		}
		if !strings.Contains(regs[0].String(), "allocs/op") {
			t.Fatalf("regression string: %s", regs[0])
		}
	})

	t.Run("ns regression caught", func(t *testing.T) {
		fresh := snap(Record{Experiment: "tput", Name: "SIC", NsPerOp: 151, AllocsPerOp: 10})
		regs, _ := CompareSnapshots(base, fresh, 0.25, 0.50)
		if len(regs) != 1 || regs[0].Metric != "ns/op" {
			t.Fatalf("regs = %v, want one ns/op regression", regs)
		}
	})

	t.Run("total rows and unmatched records skipped", func(t *testing.T) {
		fresh := snap(
			Record{Experiment: "tput", Name: "total", NsPerOp: 1e12, AllocsPerOp: 1e9},
			Record{Experiment: "tput", Name: "brand-new", NsPerOp: 1e12, AllocsPerOp: 1e9},
		)
		regs, matched := CompareSnapshots(base, fresh, 0.25, 0.50)
		if matched != 0 || len(regs) != 0 {
			t.Fatalf("matched=%d regs=%v, want 0 and none", matched, regs)
		}
	})

	t.Run("improvements pass", func(t *testing.T) {
		fresh := snap(Record{Experiment: "tput", Name: "SIC", NsPerOp: 10, AllocsPerOp: 1})
		regs, _ := CompareSnapshots(base, fresh, 0.25, 0.50)
		if len(regs) != 0 {
			t.Fatalf("improvement flagged as regression: %v", regs)
		}
	})
}

func TestMergeMin(t *testing.T) {
	first := []Record{
		{Experiment: "tput", Name: "SIC", NsPerOp: 180, AllocsPerOp: 10, BytesPerOp: 500, ActionsPerSec: 5000},
		{Experiment: "tput", Name: "IC", NsPerOp: 200, AllocsPerOp: 20, BytesPerOp: 900, ActionsPerSec: 4000},
	}
	rerun := []Record{
		{Experiment: "tput", Name: "SIC", NsPerOp: 110, AllocsPerOp: 10, BytesPerOp: 500, ActionsPerSec: 9000},
		{Experiment: "tput", Name: "IC", NsPerOp: 260, AllocsPerOp: 20, BytesPerOp: 900, ActionsPerSec: 3000},
		{Experiment: "query", Name: "topk/lazy", NsPerOp: 50, AllocsPerOp: 5},
	}
	got := MergeMin(first, rerun)
	if len(got) != 3 {
		t.Fatalf("len = %d, want 3 (pass-through of rerun-only record): %+v", len(got), got)
	}
	byKey := make(map[string]Record)
	for _, r := range got {
		byKey[r.Experiment+"/"+r.Name] = r
	}
	if r := byKey["tput/SIC"]; r.NsPerOp != 110 || r.ActionsPerSec != 9000 {
		t.Errorf("tput/SIC: ns=%v aps=%v, want min ns 110 / max aps 9000", r.NsPerOp, r.ActionsPerSec)
	}
	if r := byKey["tput/IC"]; r.NsPerOp != 200 || r.ActionsPerSec != 4000 {
		t.Errorf("tput/IC: ns=%v aps=%v, want first-run 200/4000 kept", r.NsPerOp, r.ActionsPerSec)
	}
	if r := byKey["query/topk/lazy"]; r.NsPerOp != 50 {
		t.Errorf("query/topk/lazy not passed through: %+v", r)
	}

	// A noisy first run that regresses past tolerance must pass after the
	// merged rerun brings ns back under — the guard's retry contract.
	base := snap(Record{Experiment: "tput", Name: "SIC", NsPerOp: 100, AllocsPerOp: 10})
	if regs, _ := CompareSnapshots(base, snap(first...), 0.25, 0.50); len(regs) != 1 {
		t.Fatalf("noisy first run: regs = %v, want 1", regs)
	}
	if regs, _ := CompareSnapshots(base, snap(got...), 0.25, 0.50); len(regs) != 0 {
		t.Fatalf("after MergeMin: regs = %v, want none", regs)
	}
}

func TestReadSnapshot(t *testing.T) {
	in := `{"go_version":"go1.24.0","records":[{"experiment":"tput","name":"SIC","ns_per_op":5,"allocs_per_op":2,"bytes_per_op":100}]}`
	s, err := ReadSnapshot(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	if len(s.Records) != 1 || s.Records[0].NsPerOp != 5 {
		t.Fatalf("parsed snapshot: %+v", s)
	}
	if _, err := ReadSnapshot(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
}

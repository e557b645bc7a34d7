package main

import (
	"strings"
	"testing"

	"repro/api"
)

// TestValidateSpecMemoryBudget pins the spill-directory guard: a memory
// budget is only accepted when the tracker has somewhere to spill.
func TestValidateSpecMemoryBudget(t *testing.T) {
	cases := []struct {
		name     string
		budget   int64
		durable  bool
		spill    bool
		wantErr  bool
		wantHint string
	}{
		{"no budget", 0, false, false, false, ""},
		{"budget, nowhere to spill", 1 << 20, false, false, true, "spill-dir"},
		{"budget with spill dir", 1 << 20, false, true, false, ""},
		{"budget with data dir", 1 << 20, true, false, false, ""},
		{"negative budget", -1, true, true, true, "memory_budget_bytes"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sp := api.Spec{K: 5, Window: 100, MemoryBudgetBytes: c.budget}
			err := validateSpec("default", sp, c.durable, c.spill)
			if (err != nil) != c.wantErr {
				t.Fatalf("validateSpec(budget=%d durable=%v spill=%v) = %v, wantErr=%v",
					c.budget, c.durable, c.spill, err, c.wantErr)
			}
			if err != nil && !strings.Contains(err.Error(), c.wantHint) {
				t.Errorf("error %q does not mention %q", err, c.wantHint)
			}
		})
	}
}

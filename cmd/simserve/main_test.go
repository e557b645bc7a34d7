package main

import (
	"strings"
	"testing"

	"repro/api"
)

// TestCheckReplayTarget: -replay carries numeric IDs, so only a tracker whose
// ingest takes numeric IDs may be its target.
func TestCheckReplayTarget(t *testing.T) {
	cases := []struct {
		name    string
		spec    api.Spec
		refused bool
	}{
		{"numeric", api.Spec{K: 5, Window: 100}, false},
		{"numeric durable budgeted", api.Spec{K: 5, Window: 100, SnapshotWALBytes: 1 << 20, MemoryBudgetBytes: 4096}, false},
		{"name mode", api.Spec{K: 5, Window: 100, Names: true}, true},
	}
	for _, tc := range cases {
		err := checkReplayTarget(tc.spec)
		if (err != nil) != tc.refused {
			t.Errorf("%s: checkReplayTarget = %v, want refused = %v", tc.name, err, tc.refused)
		}
		if err != nil && !strings.Contains(err.Error(), "intern table") {
			t.Errorf("%s: refusal does not say why: %v", tc.name, err)
		}
	}
}

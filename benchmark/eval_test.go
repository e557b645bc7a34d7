package main

import (
	"testing"

	"repro/internal/greedy"
	"repro/internal/stream"
)

// Two cascades:
//
//	1:<u1>   2:<u2,1>   3:<u3,2>        u1 -> u2 -> u3
//	4:<u4>   5:<u5,4>   6:<u1,4>        u4 -> u5, u4 -> u1
//
// so I(u1)={u1,u2,u3}, I(u2)={u2,u3}, I(u3)={u3}, I(u4)={u4,u5,u1},
// I(u5)={u5}.
var handBuilt = []stream.Action{
	{ID: 1, User: 1, Parent: stream.NoParent},
	{ID: 2, User: 2, Parent: 1},
	{ID: 3, User: 3, Parent: 2},
	{ID: 4, User: 4, Parent: stream.NoParent},
	{ID: 5, User: 5, Parent: 4},
	{ID: 6, User: 1, Parent: 4},
}

func TestEvaluatorCoverageOnHandBuiltStream(t *testing.T) {
	ev, err := newEvaluator(handBuilt)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		seeds []stream.UserID
		start stream.ActionID
		want  float64
	}{
		{[]stream.UserID{1}, 1, 3},
		{[]stream.UserID{4}, 1, 3},
		{[]stream.UserID{1, 4}, 1, 5}, // u1 is in both sets
		{[]stream.UserID{2, 3}, 1, 2},
		{[]stream.UserID{1}, 4, 1}, // only action 6 counts from 4 on
		{[]stream.UserID{2}, 4, 0},
		{[]stream.UserID{4}, 5, 2}, // u4's own action 4 is before the suffix
		{nil, 1, 0},
		{[]stream.UserID{99}, 1, 0},
	}
	for _, c := range cases {
		if got := ev.coverage(c.seeds, c.start); got != c.want {
			t.Errorf("coverage(%v, from %d) = %v, want %v", c.seeds, c.start, got, c.want)
		}
	}
}

func TestEvaluatorGreedyAgreesWithInternalGreedy(t *testing.T) {
	ev, err := newEvaluator(handBuilt)
	if err != nil {
		t.Fatal(err)
	}
	// The same instance as explicit sets, through internal/greedy's
	// set-based entry point.
	sets := map[stream.UserID][]stream.UserID{
		1: {1, 2, 3}, 2: {2, 3}, 3: {3}, 4: {4, 5, 1}, 5: {5},
	}
	for k := 1; k <= 3; k++ {
		seeds, value := ev.greedy(k, 1)
		refSeeds, refValue := greedy.SelectSets(sets, k, nil)
		if value != refValue || len(seeds) != len(refSeeds) {
			t.Fatalf("k=%d: greedy = %v %v, internal/greedy on the sets = %v %v", k, seeds, value, refSeeds, refValue)
		}
		for i := range seeds {
			if seeds[i] != refSeeds[i] {
				t.Errorf("k=%d: seed %d is %d, reference picks %d", k, i, seeds[i], refSeeds[i])
			}
		}
		if got := ev.coverage(seeds, 1); got != value {
			t.Errorf("k=%d: greedy says %v but its seeds cover %v", k, value, got)
		}
	}
	// k=2: u1 (3, lowest ID wins the tie with u4) then u4 (+2) = 5.
	if seeds, value := ev.greedy(2, 1); value != 5 || len(seeds) != 2 || seeds[0] != 1 || seeds[1] != 4 {
		t.Errorf("greedy(2) = %v %v, want [1 4] 5", seeds, value)
	}
}

func TestEvaluatorTreatsParentsBeforeTheSliceAsRoots(t *testing.T) {
	ev, err := newEvaluator(handBuilt[3:]) // actions 4..6 only
	if err != nil {
		t.Fatal(err)
	}
	if got := ev.coverage([]stream.UserID{4}, 4); got != 3 {
		t.Errorf("coverage = %v, want u4,u5,u1", got)
	}
	if _, err := newEvaluator([]stream.Action{{ID: 2, User: 1, Parent: stream.NoParent}, {ID: 1, User: 2, Parent: stream.NoParent}}); err == nil {
		t.Error("out-of-order actions were accepted")
	}
}

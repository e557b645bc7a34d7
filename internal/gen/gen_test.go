package gen

import (
	"math"
	"testing"

	"repro/internal/stream"
)

// ingest replays a generated stream to obtain its Table 3 statistics.
func ingest(t *testing.T, actions []stream.Action) stream.Stats {
	t.Helper()
	st, err := stream.Summarize(actions)
	if err != nil {
		t.Fatalf("generated invalid stream: %v", err)
	}
	return st
}

func TestStreamIsValidAndComplete(t *testing.T) {
	cfg := Config{Name: "t", Users: 100, Actions: 5000, RootProb: 0.3, MeanRespDist: 200, Seed: 1}
	actions := Stream(cfg)
	if len(actions) != 5000 {
		t.Fatalf("actions = %d", len(actions))
	}
	st := ingest(t, actions) // Ingest validates ID monotonicity and parents
	if st.Users == 0 || st.Users > 100 {
		t.Fatalf("users = %d", st.Users)
	}
	if actions[0].Parent != stream.NoParent {
		t.Fatal("first action must be a root")
	}
}

func TestRootFractionMatchesConfig(t *testing.T) {
	cfg := Config{Users: 50, Actions: 20000, RootProb: 0.25, MeanRespDist: 100, Seed: 2}
	st := ingest(t, Stream(cfg))
	if math.Abs(st.RootFraction-0.25) > 0.02 {
		t.Fatalf("root fraction = %.3f, want ≈ 0.25", st.RootFraction)
	}
}

func TestMeanRespDistApproximatesConfig(t *testing.T) {
	// Long stream relative to the mean so clamping is negligible.
	cfg := Config{Users: 50, Actions: 50000, RootProb: 0.3, MeanRespDist: 500, Seed: 3}
	st := ingest(t, Stream(cfg))
	if math.Abs(st.AvgRespDist-500) > 50 {
		t.Fatalf("avg resp dist = %.1f, want ≈ 500", st.AvgRespDist)
	}
}

// TestTable3Shape checks the dataset presets reproduce the paper's Table 3
// relationships at scaled size: Reddit-like trees are deep (≈4.6), the
// Twitter-like stream is shallow (≈1.9), SYN presets sit near 2.4, and
// SYN-O's response distances are two orders of magnitude above SYN-N's.
func TestTable3Shape(t *testing.T) {
	const users, actions, window = 2000, 60000, 10000
	reddit := ingest(t, Stream(RedditLike(users, actions, window, 1)))
	twitter := ingest(t, Stream(TwitterLike(users, actions, window, 1)))
	synO := ingest(t, Stream(SynO(users, actions, window, 1)))
	synN := ingest(t, Stream(SynN(users, actions, window, 1)))

	if reddit.AvgDepth < 3.8 || reddit.AvgDepth > 5.6 {
		t.Errorf("Reddit-like depth = %.2f, want ≈ 4.6", reddit.AvgDepth)
	}
	if twitter.AvgDepth < 1.5 || twitter.AvgDepth > 2.3 {
		t.Errorf("Twitter-like depth = %.2f, want ≈ 1.9", twitter.AvgDepth)
	}
	if synO.AvgDepth < 1.9 || synO.AvgDepth > 3.1 {
		t.Errorf("SYN-O depth = %.2f, want ≈ 2.5", synO.AvgDepth)
	}
	if synN.AvgDepth < 1.9 || synN.AvgDepth > 3.2 {
		t.Errorf("SYN-N depth = %.2f, want ≈ 2.6", synN.AvgDepth)
	}
	if reddit.AvgDepth < twitter.AvgDepth+1.5 {
		t.Errorf("depth ordering broken: reddit %.2f vs twitter %.2f", reddit.AvgDepth, twitter.AvgDepth)
	}
	// SYN-N's mean distance is 1% of SYN-O's by construction.
	if synN.AvgRespDist*20 > synO.AvgRespDist {
		t.Errorf("SYN distances not separated: O=%.0f N=%.0f", synO.AvgRespDist, synN.AvgRespDist)
	}
}

// TestActivitySkew: the Zipf presets must concentrate activity so that
// influential users exist at all.
func TestActivitySkew(t *testing.T) {
	actions := Stream(TwitterLike(5000, 30000, 5000, 4))
	count := map[stream.UserID]int{}
	for _, a := range actions {
		count[a.User]++
	}
	max := 0
	for _, c := range count {
		if c > max {
			max = c
		}
	}
	mean := float64(len(actions)) / float64(len(count))
	if float64(max) < 10*mean {
		t.Fatalf("max activity %d < 10x mean %.1f: no skew", max, mean)
	}
}

func TestActivityWeightsRespected(t *testing.T) {
	// Only user 3 has weight: every action must be theirs.
	w := make([]int, 10)
	w[3] = 5
	cfg := Config{Users: 10, Actions: 200, RootProb: 0.5, MeanRespDist: 10, ActivityWeights: w, Seed: 5}
	for _, a := range Stream(cfg) {
		if a.User != 3 {
			t.Fatalf("action by %d, want 3", a.User)
		}
	}
}

func TestZeroWeightsFallBackToUniform(t *testing.T) {
	cfg := Config{Users: 10, Actions: 1000, RootProb: 0.5, MeanRespDist: 10,
		ActivityWeights: make([]int, 10), Seed: 6}
	seen := map[stream.UserID]bool{}
	for _, a := range Stream(cfg) {
		seen[a.User] = true
	}
	if len(seen) < 8 {
		t.Fatalf("only %d users active under uniform fallback", len(seen))
	}
}

func TestReproducible(t *testing.T) {
	a := Stream(SynN(500, 2000, 1000, 42))
	b := Stream(SynN(500, 2000, 1000, 42))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("action %d differs", i)
		}
	}
	c := Stream(SynN(500, 2000, 1000, 43))
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

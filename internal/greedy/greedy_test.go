package greedy

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/stream"
	"repro/internal/submod"
)

func paperWindow(t *testing.T) *stream.Stream {
	t.Helper()
	st := stream.New()
	actions := []stream.Action{
		{ID: 1, User: 1, Parent: stream.NoParent},
		{ID: 2, User: 2, Parent: 1},
		{ID: 3, User: 3, Parent: stream.NoParent},
		{ID: 4, User: 3, Parent: 1},
		{ID: 5, User: 4, Parent: 3},
		{ID: 6, User: 1, Parent: 3},
		{ID: 7, User: 5, Parent: 3},
		{ID: 8, User: 4, Parent: 7},
	}
	for _, a := range actions {
		if _, err := st.Ingest(a); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

func TestSelectOnPaperExample(t *testing.T) {
	// Example 2: the optimum at t=8 with k=2 is {u1, u3} with value 5, and
	// greedy finds it (u3 first with gain 4, then u1 adds u2).
	seeds, val := Select(paperWindow(t), 1, 2, nil)
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	if !reflect.DeepEqual(seeds, []stream.UserID{1, 3}) {
		t.Fatalf("seeds = %v, want [1 3]", seeds)
	}
	if val != 5 {
		t.Fatalf("value = %v, want 5", val)
	}
}

func TestSelectStopsAtZeroGain(t *testing.T) {
	seeds, val := Select(paperWindow(t), 1, 5, nil)
	// Value 5 covers every active user; extra seeds add nothing and greedy
	// must stop early rather than pad the set.
	if val != 5 {
		t.Fatalf("value = %v, want 5", val)
	}
	if len(seeds) > 3 {
		t.Fatalf("greedy padded zero-gain seeds: %v", seeds)
	}
}

func TestSelectRespectsK(t *testing.T) {
	seeds, _ := Select(paperWindow(t), 1, 1, nil)
	if len(seeds) != 1 || seeds[0] != 3 {
		t.Fatalf("k=1 seeds = %v, want [3]", seeds)
	}
}

func TestSelectEmptyWindow(t *testing.T) {
	seeds, val := Select(stream.New(), 1, 3, nil)
	if seeds != nil || val != 0 {
		t.Fatalf("empty window: %v, %v", seeds, val)
	}
}

func TestWeightedSelect(t *testing.T) {
	w := submod.Table{W: map[stream.UserID]float64{2: 50}, Default: 1}
	seeds, val := Select(paperWindow(t), 1, 1, w)
	// Covering u2 (weight 50) dominates: only u1 and u2 influence u2.
	if len(seeds) != 1 || (seeds[0] != 1 && seeds[0] != 2) {
		t.Fatalf("weighted seeds = %v", seeds)
	}
	if val < 50 {
		t.Fatalf("weighted value = %v, want >= 50", val)
	}
}

// TestGreedyMatchesBruteForceRatio: on random instances lazy greedy must be
// exactly the same as the naive (eager) greedy, and within (1−1/e) of the
// enumerated optimum.
func TestGreedyGuarantee(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 15; trial++ {
		st := stream.New()
		id := stream.ActionID(1)
		for i := 0; i < 120; i++ {
			a := stream.Action{ID: id, User: stream.UserID(rng.Intn(10)), Parent: stream.NoParent}
			if id > 1 && rng.Float64() < 0.75 {
				a.Parent = id - stream.ActionID(rng.Intn(int(min(id-1, 30)))+1)
			}
			if _, err := st.Ingest(a); err != nil {
				t.Fatal(err)
			}
			id++
		}
		const k = 2
		_, val := Select(st, 1, k, nil)
		opt := bruteOptimum(st, 1, k)
		if val < (1-1/math.E)*opt-1e-9 {
			t.Fatalf("trial %d: greedy %v < (1-1/e)·OPT %v", trial, val, opt)
		}
		if val > opt+1e-9 {
			t.Fatalf("trial %d: greedy %v exceeds OPT %v", trial, val, opt)
		}
	}
}

func bruteOptimum(st *stream.Stream, start stream.ActionID, k int) float64 {
	var users []stream.UserID
	st.Influencers(start, func(u stream.UserID) bool { users = append(users, u); return true })
	best := 0.0
	var rec func(i int, chosen []stream.UserID)
	rec = func(i int, chosen []stream.UserID) {
		cov := map[stream.UserID]bool{}
		for _, u := range chosen {
			st.Influence(u, start, func(v stream.UserID) bool { cov[v] = true; return true })
		}
		if v := float64(len(cov)); v > best {
			best = v
		}
		if len(chosen) == k {
			return
		}
		for j := i; j < len(users); j++ {
			rec(j+1, append(chosen, users[j]))
		}
	}
	rec(0, nil)
	return best
}

func TestSelectSetsMatchesSelect(t *testing.T) {
	st := paperWindow(t)
	sets := map[stream.UserID][]stream.UserID{}
	st.Influencers(1, func(u stream.UserID) bool {
		sets[u] = st.InfluenceSet(u, 1)
		return true
	})
	_, v1 := Select(st, 1, 2, nil)
	_, v2 := SelectSets(sets, 2, nil)
	if v1 != v2 {
		t.Fatalf("Select=%v SelectSets=%v", v1, v2)
	}
}

// TestNaiveMatchesCELF: the naive baseline must return the same value (and,
// with deterministic tie-breaking aside, equivalent seeds) as CELF — it is
// the same algorithm minus lazy evaluation.
func TestNaiveMatchesCELF(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 10; trial++ {
		st := stream.New()
		id := stream.ActionID(1)
		for i := 0; i < 150; i++ {
			a := stream.Action{ID: id, User: stream.UserID(rng.Intn(12)), Parent: stream.NoParent}
			if id > 1 && rng.Float64() < 0.7 {
				a.Parent = id - stream.ActionID(rng.Intn(int(min(id-1, 40)))+1)
			}
			if _, err := st.Ingest(a); err != nil {
				t.Fatal(err)
			}
			id++
		}
		for _, k := range []int{1, 3, 6} {
			_, lazy := Select(st, 1, k, nil)
			_, naive := SelectNaive(st, 1, k, nil)
			if lazy != naive {
				t.Fatalf("trial %d k=%d: CELF %v != naive %v", trial, k, lazy, naive)
			}
		}
	}
}

func TestNaiveOnPaperExample(t *testing.T) {
	seeds, val := SelectNaive(paperWindow(t), 1, 2, nil)
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	if !reflect.DeepEqual(seeds, []stream.UserID{1, 3}) || val != 5 {
		t.Fatalf("naive seeds = %v val = %v, want [1 3] 5", seeds, val)
	}
}

func TestNaiveEmptyWindow(t *testing.T) {
	seeds, val := SelectNaive(stream.New(), 1, 3, nil)
	if seeds != nil || val != 0 {
		t.Fatalf("empty: %v %v", seeds, val)
	}
}

func BenchmarkCELFvsNaive(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	st := stream.New()
	for i := 1; i <= 20000; i++ {
		a := stream.Action{ID: stream.ActionID(i), User: stream.UserID(rng.Intn(2000)), Parent: stream.NoParent}
		if i > 1 && rng.Float64() < 0.7 {
			a.Parent = stream.ActionID(i - rng.Intn(min(i-1, 3000)) - 1)
		}
		if _, err := st.Ingest(a); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("CELF", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Select(st, 1, 20, nil)
		}
	})
	b.Run("Naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			SelectNaive(st, 1, 20, nil)
		}
	})
}

func TestSelectSetsEmpty(t *testing.T) {
	seeds, val := SelectSets(nil, 3, nil)
	if seeds != nil || val != 0 {
		t.Fatalf("empty sets: %v %v", seeds, val)
	}
}

// TestRankSetsOrder pins the two properties a merge of rankings rests on
// (internal/router's /seeds): gains never increase down a ranking, and equal
// gains come out in ascending user order — so rankings over disjoint
// universes, merged by (gain descending, user ascending), are the ranking of
// the union. Small universes and small sets make ties the common case. Each
// gain must also be the pick's true marginal gain, and SelectSets' value
// their sum.
func TestRankSetsOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		// parts disjoint universes: users and members of part p are ≡ p
		// (mod parts), so no set reaches into another part.
		parts := 1 + rng.Intn(4)
		k := 1 + rng.Intn(8)
		union := map[stream.UserID][]stream.UserID{}
		part := make([]map[stream.UserID][]stream.UserID, parts)
		for p := range part {
			part[p] = map[stream.UserID][]stream.UserID{}
			for n := rng.Intn(12); n > 0; n-- {
				u := stream.UserID(rng.Intn(40)*parts + p)
				var set []stream.UserID // distinct members, as influence sets have
				for _, m := range rng.Perm(10)[:rng.Intn(5)] {
					set = append(set, stream.UserID(m*parts+p))
				}
				part[p][u], union[u] = set, set
			}
		}

		seeds, gains := RankSets(union, k, nil)
		if len(seeds) != len(gains) || len(seeds) > k {
			t.Fatalf("trial %d: %d seeds, %d gains, k=%d", trial, len(seeds), len(gains), k)
		}
		covered := map[stream.UserID]bool{}
		for i, u := range seeds {
			gain := 0.0
			for _, v := range union[u] {
				if !covered[v] {
					covered[v] = true
					gain++
				}
			}
			if gains[i] != gain || gain <= 0 {
				t.Fatalf("trial %d: pick %d (user %d) reports gain %v, adds %v", trial, i, u, gains[i], gain)
			}
			if i > 0 && (gains[i] > gains[i-1] || gains[i] == gains[i-1] && u < seeds[i-1]) {
				t.Fatalf("trial %d: pick %d (user %d, gain %v) out of order after user %d, gain %v",
					trial, i, u, gains[i], seeds[i-1], gains[i-1])
			}
		}
		if s, v := SelectSets(union, k, nil); !reflect.DeepEqual(s, seeds) || v != float64(len(covered)) {
			t.Fatalf("trial %d: SelectSets = %v, %v; ranking %v covers %d", trial, s, v, seeds, len(covered))
		}

		// Merge the parts' own rankings and compare with the union's.
		type pick struct {
			u stream.UserID
			g float64
		}
		var merged []pick
		for _, sets := range part {
			s, g := RankSets(sets, k, nil)
			for i := range s {
				merged = append(merged, pick{s[i], g[i]})
			}
		}
		sort.SliceStable(merged, func(i, j int) bool {
			if merged[i].g != merged[j].g {
				return merged[i].g > merged[j].g
			}
			return merged[i].u < merged[j].u
		})
		merged = merged[:min(k, len(merged))]
		if len(merged) != len(seeds) {
			t.Fatalf("trial %d: merge of %d rankings has %d picks, the union's ranking %d", trial, parts, len(merged), len(seeds))
		}
		for i, m := range merged {
			if m.u != seeds[i] || m.g != gains[i] {
				t.Fatalf("trial %d: merged pick %d = user %d gain %v, union picks user %d gain %v",
					trial, i, m.u, m.g, seeds[i], gains[i])
			}
		}
	}
}

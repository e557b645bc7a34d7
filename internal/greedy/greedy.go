// Package greedy implements the classic (1−1/e)-approximate greedy
// algorithm of Nemhauser et al. for the SIM objective — the "Greedy"
// baseline of the paper's evaluation. Since it stores no intermediate state,
// it recomputes the solution from the current window for every query, which
// is exactly the cost profile (O(k·|U|) objective evaluations per window)
// the checkpoint frameworks are designed to avoid.
//
// The implementation uses CELF lazy evaluation (Leskovec et al.): cached
// marginal gains are valid upper bounds under submodularity, so a candidate
// is re-evaluated only when it surfaces at the top of the priority queue.
package greedy

import (
	"container/heap"
	"sort"

	"repro/internal/stream"
	"repro/internal/submod"
)

// candidate is a CELF queue entry: a user with a cached (stale) marginal
// gain and the iteration at which the gain was computed.
type candidate struct {
	user  stream.UserID
	gain  float64
	round int
}

type queue []candidate

func (q queue) Len() int { return len(q) }

// Less orders by gain, breaking ties on the user ID: user IDs are unique, so
// the comparator is a strict total order and the pop sequence is
// deterministic even though candidates are collected in map order.
func (q queue) Less(i, j int) bool {
	if q[i].gain != q[j].gain {
		return q[i].gain > q[j].gain
	}
	return q[i].user < q[j].user
}
func (q queue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *queue) Push(x interface{}) { *q = append(*q, x.(candidate)) }
func (q *queue) Pop() interface{} {
	old := *q
	n := len(old)
	x := old[n-1]
	*q = old[:n-1]
	return x
}

// Select runs lazy greedy over the window suffix starting at start and
// returns up to k seed users with the objective value of their combined
// influence sets.
func Select(st *stream.Stream, start stream.ActionID, k int, w submod.Weights) ([]stream.UserID, float64) {
	gainOf := func(u stream.UserID, cov *submod.Coverage) float64 {
		g := 0.0
		st.Influence(u, start, func(v stream.UserID) bool {
			g += cov.Gain(v)
			return true
		})
		return g
	}
	addTo := func(u stream.UserID, cov *submod.Coverage) {
		st.Influence(u, start, func(v stream.UserID) bool {
			cov.Add(v)
			return true
		})
	}
	cov := submod.NewCoverage(w)
	q := queue{}
	st.Influencers(start, func(u stream.UserID) bool {
		q = append(q, candidate{user: u, gain: gainOf(u, cov), round: 0})
		return true
	})
	heap.Init(&q)

	var seeds []stream.UserID
	for len(seeds) < k && q.Len() > 0 {
		top := heap.Pop(&q).(candidate)
		if top.round == len(seeds) {
			if top.gain <= 0 {
				break
			}
			seeds = append(seeds, top.user)
			addTo(top.user, cov)
			continue
		}
		top.gain = gainOf(top.user, cov)
		top.round = len(seeds)
		heap.Push(&q, top)
	}
	return seeds, cov.Value()
}

// SelectNaive is the paper's actual Greedy baseline (§4, §6.1): the
// textbook Nemhauser greedy with NO lazy evaluation and NO incremental
// coverage — every iteration evaluates f(I(S ∪ {u})) from scratch for every
// candidate, i.e. O(k·|U|) influence-function evaluations per query, each a
// full union of the current seeds' influence sets. This cost profile (the
// paper reports ~10 s to pick 100 seeds among 500K users) is exactly what
// motivates the checkpoint frameworks, so the throughput experiments use
// this variant. It returns the same seed set as Select, which the quality
// experiments therefore compute with the fast CELF implementation.
func SelectNaive(st *stream.Stream, start stream.ActionID, k int, w submod.Weights) ([]stream.UserID, float64) {
	var users []stream.UserID
	st.Influencers(start, func(u stream.UserID) bool { users = append(users, u); return true })
	// Influencers iterates a map; sort so ties deterministically pick the
	// lowest user ID (the strict > below keeps the first maximum seen).
	sort.Slice(users, func(i, j int) bool { return users[i] < users[j] })

	var seeds []stream.UserID
	chosen := map[stream.UserID]bool{}
	best := 0.0
	for len(seeds) < k {
		var bestU stream.UserID
		bestV, found := best, false
		for _, u := range users {
			if chosen[u] {
				continue
			}
			// From-scratch evaluation of f(I(S ∪ {u})).
			cov := submod.NewCoverage(w)
			for _, s := range seeds {
				st.Influence(s, start, func(v stream.UserID) bool { cov.Add(v); return true })
			}
			st.Influence(u, start, func(v stream.UserID) bool { cov.Add(v); return true })
			if v := cov.Value(); v > bestV {
				bestU, bestV, found = u, v, true
			}
		}
		if !found {
			break
		}
		seeds = append(seeds, bestU)
		chosen[bestU] = true
		best = bestV
	}
	return seeds, best
}

// RankSets runs lazy greedy maximum coverage over materialized sets and
// returns up to k picks in pick order, each with the marginal gain it was
// picked at. Gains never increase along the sequence (submodularity) and
// candidates with equal gains come out in ascending user order — exact
// greedy with that tie-break, whatever the lazy evaluation re-scored on the
// way — so rankings over disjoint universes merge by (gain descending, user
// ascending) into the ranking of their union: a pick in one universe moves
// no gain in another (internal/router's /seeds). Selection stops early when
// no candidate adds anything.
func RankSets(sets map[stream.UserID][]stream.UserID, k int, w submod.Weights) (seeds []stream.UserID, gains []float64) {
	cov := submod.NewCoverage(w)
	gainOf := func(u stream.UserID) float64 {
		g := 0.0
		for _, v := range sets[u] {
			g += cov.Gain(v)
		}
		return g
	}
	q := make(queue, 0, len(sets))
	for u := range sets {
		q = append(q, candidate{user: u, gain: gainOf(u), round: 0})
	}
	heap.Init(&q)
	for len(seeds) < k && q.Len() > 0 {
		top := heap.Pop(&q).(candidate)
		if top.round == len(seeds) {
			if top.gain <= 0 {
				break
			}
			seeds = append(seeds, top.user)
			gains = append(gains, top.gain)
			for _, v := range sets[top.user] {
				cov.Add(v)
			}
			continue
		}
		top.gain = gainOf(top.user)
		top.round = len(seeds)
		heap.Push(&q, top)
	}
	return seeds, gains
}

// SelectSets is RankSets for callers that want the objective value of the
// selection rather than its breakdown: the offline reference the oracle
// comparison (Table 2 experiment) measures against. The value is the sum of
// the picks' gains.
func SelectSets(sets map[stream.UserID][]stream.UserID, k int, w submod.Weights) ([]stream.UserID, float64) {
	seeds, gains := RankSets(sets, k, w)
	value := 0.0
	for _, g := range gains {
		value += g
	}
	return seeds, value
}

package oracle

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/stream"
	"repro/internal/submod"
)

// coverageInstance is a random Maximum k-Coverage instance: m candidate
// users, each owning one set over a ground of g users.
type coverageInstance struct {
	sets map[stream.UserID][]stream.UserID
	k    int
}

func randomInstance(rng *rand.Rand, m, g, k int) coverageInstance {
	inst := coverageInstance{sets: map[stream.UserID][]stream.UserID{}, k: k}
	for u := 0; u < m; u++ {
		n := 1 + rng.Intn(6)
		set := map[stream.UserID]bool{}
		for len(set) < n {
			set[stream.UserID(rng.Intn(g))] = true
		}
		var s []stream.UserID
		for v := range set {
			s = append(s, v)
		}
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		inst.sets[stream.UserID(u)] = s
	}
	return inst
}

// optimal computes the exact Maximum k-Coverage optimum by enumeration.
// Only usable for tiny instances.
func (ci coverageInstance) optimal(w submod.Weights) float64 {
	var users []stream.UserID
	for u := range ci.sets {
		users = append(users, u)
	}
	sort.Slice(users, func(i, j int) bool { return users[i] < users[j] })
	best := 0.0
	var rec func(start int, chosen [][]stream.UserID)
	rec = func(start int, chosen [][]stream.UserID) {
		if v := submod.ValueOf(w, chosen...); v > best {
			best = v
		}
		if len(chosen) == ci.k {
			return
		}
		for i := start; i < len(users); i++ {
			rec(i+1, append(chosen, ci.sets[users[i]]))
		}
	}
	rec(0, nil)
	return best
}

// feed streams the instance's sets to the oracle in a deterministic shuffled
// order.
func (ci coverageInstance) feed(rng *rand.Rand, o Oracle) {
	var users []stream.UserID
	for u := range ci.sets {
		users = append(users, u)
	}
	sort.Slice(users, func(i, j int) bool { return users[i] < users[j] })
	rng.Shuffle(len(users), func(i, j int) { users[i], users[j] = users[j], users[i] })
	for _, u := range users {
		o.Process(SliceElement(u, ci.sets[u]))
	}
}

func allKinds() []Kind { return []Kind{SieveStreaming, ThresholdStream, BlogWatch, MkC} }

func ratioFor(kind Kind, beta float64) float64 {
	switch kind {
	case SieveStreaming, ThresholdStream:
		return 0.5 - beta
	default:
		return 0.25
	}
}

// TestApproximationRatioOnRandomInstances verifies every oracle achieves its
// Table 2 ratio against the exact optimum on small random instances.
func TestApproximationRatioOnRandomInstances(t *testing.T) {
	const beta = 0.1
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 40; trial++ {
		inst := randomInstance(rng, 10, 25, 3)
		opt := inst.optimal(nil)
		for _, kind := range allKinds() {
			o := NewFactory(kind, beta, nil)(inst.k)
			inst.feed(rand.New(rand.NewSource(int64(trial))), o)
			want := ratioFor(kind, beta) * opt
			if o.Value() < want-1e-9 {
				t.Errorf("trial %d %v: value %.3f < %.3f (ratio %.2f of OPT %.1f)",
					trial, kind, o.Value(), want, ratioFor(kind, beta), opt)
			}
		}
	}
}

// TestValueMatchesSeeds verifies the reported value equals the objective of
// the reported seeds evaluated on the freshest sets (it may exceed the
// snapshot-based internal value only for swap oracles; for sieve oracles it
// must match exactly when sets never change).
func TestValueMatchesSeeds(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	inst := randomInstance(rng, 20, 40, 4)
	for _, kind := range allKinds() {
		o := NewFactory(kind, 0.2, nil)(inst.k)
		inst.feed(rand.New(rand.NewSource(5)), o)
		var sets [][]stream.UserID
		for _, u := range o.Seeds() {
			sets = append(sets, inst.sets[u])
		}
		real := submod.ValueOf(nil, sets...)
		if math.Abs(real-o.Value()) > 1e-9 {
			t.Errorf("%v: reported value %.3f, recomputed %.3f", kind, o.Value(), real)
		}
	}
}

func TestSeedsWithinBudgetAndDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		inst := randomInstance(rng, 30, 50, 5)
		for _, kind := range allKinds() {
			o := NewFactory(kind, 0.15, nil)(inst.k)
			inst.feed(rand.New(rand.NewSource(int64(trial))), o)
			seeds := o.Seeds()
			if len(seeds) > inst.k {
				t.Fatalf("%v: %d seeds > k=%d", kind, len(seeds), inst.k)
			}
			seen := map[stream.UserID]bool{}
			for _, u := range seeds {
				if seen[u] {
					t.Fatalf("%v: duplicate seed %d", kind, u)
				}
				seen[u] = true
			}
		}
	}
}

// TestMonotoneValueUnderGrowingSets simulates the Set-Stream Mapping: the
// same users reappear with growing influence sets. The oracle value must
// never decrease (the property SIC's Lemma 2 depends on).
func TestMonotoneValueUnderGrowingSets(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, kind := range allKinds() {
		o := NewFactory(kind, 0.1, nil)(4)
		cur := map[stream.UserID][]stream.UserID{}
		last := 0.0
		for step := 0; step < 500; step++ {
			u := stream.UserID(rng.Intn(15))
			cur[u] = append(cur[u], stream.UserID(rng.Intn(80)))
			o.Process(SliceElement(u, dedup(cur[u])))
			if v := o.Value(); v < last-1e-9 {
				t.Fatalf("%v: value decreased %.3f -> %.3f at step %d", kind, last, v, step)
			} else {
				last = v
			}
		}
	}
}

func dedup(in []stream.UserID) []stream.UserID {
	seen := map[stream.UserID]bool{}
	var out []stream.UserID
	for _, v := range in {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// TestSeedUpdateMergesCoverage: re-seeing a seed user with a larger set
// must raise the value without consuming budget.
func TestSeedUpdateMergesCoverage(t *testing.T) {
	for _, kind := range allKinds() {
		o := NewFactory(kind, 0.1, nil)(1)
		o.Process(SliceElement(1, []stream.UserID{10, 11}))
		v1 := o.Value()
		o.Process(SliceElement(1, []stream.UserID{10, 11, 12, 13}))
		if o.Value() <= v1 {
			t.Errorf("%v: value did not grow on seed update (%.1f -> %.1f)", kind, v1, o.Value())
		}
		if len(o.Seeds()) != 1 {
			t.Errorf("%v: seed update consumed budget: %v", kind, o.Seeds())
		}
	}
}

func TestEmptyElementIgnored(t *testing.T) {
	for _, kind := range allKinds() {
		o := NewFactory(kind, 0.1, nil)(2)
		o.Process(SliceElement(1, nil))
		if o.Value() != 0 || len(o.Seeds()) != 0 {
			t.Errorf("%v: empty element changed state", kind)
		}
	}
}

func TestWeightedObjective(t *testing.T) {
	w := submod.Table{W: map[stream.UserID]float64{100: 10}, Default: 1}
	for _, kind := range allKinds() {
		o := NewFactory(kind, 0.1, w)(1)
		o.Process(SliceElement(1, []stream.UserID{1, 2, 3})) // value 3
		o.Process(SliceElement(2, []stream.UserID{100}))     // value 10
		if o.Value() < 10 {
			t.Errorf("%v: weighted value %.1f, want >= 10", kind, o.Value())
		}
		if len(o.Seeds()) != 1 || o.Seeds()[0] != 2 {
			t.Errorf("%v: seeds = %v, want [2]", kind, o.Seeds())
		}
	}
}

// metaElement builds an Element the way the checkpoint frameworks do:
// with the Latest/Size fast-path metadata populated.
func metaElement(u stream.UserID, set []stream.UserID, latest stream.UserID) Element {
	e := SliceElement(u, set)
	e.Latest = latest
	e.LatestValid = true
	return e
}

// TestGainCacheAdmitsAfterGrowth: a candidate rejected early must still be
// admitted once its influence set grows past the threshold, even on the
// metadata fast path (the gain-upper-bound cache must never block a
// legitimate admission).
func TestGainCacheAdmitsAfterGrowth(t *testing.T) {
	for _, kind := range []Kind{SieveStreaming, ThresholdStream} {
		o := NewFactory(kind, 0.1, nil)(2)
		// A large element pins m (and thus thresholds) high.
		big := make([]stream.UserID, 40)
		for i := range big {
			big[i] = stream.UserID(1000 + i)
		}
		o.Process(metaElement(1, big, big[len(big)-1]))
		v1 := o.Value()

		// Candidate 2 starts tiny (rejected everywhere useful), then grows
		// one member at a time to 30 distinct users.
		var set []stream.UserID
		for i := 0; i < 30; i++ {
			v := stream.UserID(2000 + i)
			set = append(set, v)
			o.Process(metaElement(2, set, v))
		}
		if o.Value() <= v1 {
			t.Errorf("%v: value stuck at %.1f after candidate growth", kind, v1)
		}
		found := false
		for _, s := range o.Seeds() {
			if s == 2 {
				found = true
			}
		}
		if !found {
			t.Errorf("%v: grown candidate never admitted: seeds=%v", kind, o.Seeds())
		}
	}
}

// TestFastPathMatchesSlowPath: identical element sequences with and without
// the metadata must produce identical values (admissions are decided by the
// same comparisons; the cache only skips provably fruitless scans).
func TestFastPathMatchesSlowPath(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 10; trial++ {
		for _, kind := range []Kind{SieveStreaming, ThresholdStream} {
			fast := NewFactory(kind, 0.15, nil)(3)
			slow := NewFactory(kind, 0.15, nil)(3)
			cur := map[stream.UserID][]stream.UserID{}
			for step := 0; step < 400; step++ {
				u := stream.UserID(rng.Intn(12))
				v := stream.UserID(rng.Intn(60))
				had := false
				for _, x := range cur[u] {
					if x == v {
						had = true
						break
					}
				}
				if !had {
					cur[u] = append(cur[u], v)
				}
				// The fast tracker gets metadata; the slow one does not.
				// Latest is v only when it is genuinely the newest member.
				fast.Process(metaElement(u, cur[u], v))
				slow.Process(SliceElement(u, cur[u]))
				if fast.Value() != slow.Value() {
					t.Fatalf("%v trial %d step %d: fast %.1f != slow %.1f",
						kind, trial, step, fast.Value(), slow.Value())
				}
			}
		}
	}
}

func TestSieveInstanceManagement(t *testing.T) {
	s := NewSieve(10, 0.3, nil)
	s.Process(SliceElement(1, []stream.UserID{1}))
	first := s.Stats().Instances
	if first == 0 {
		t.Fatal("no instances after first element")
	}
	// A much larger singleton shifts the guess window upward; stale
	// instances must be dropped, and the value must not dip.
	before := s.Value()
	big := make([]stream.UserID, 50)
	for i := range big {
		big[i] = stream.UserID(100 + i)
	}
	s.Process(SliceElement(2, big))
	if s.Value() < before {
		t.Fatalf("value dipped after retune: %.1f -> %.1f", before, s.Value())
	}
	if s.Value() < 50 {
		t.Fatalf("big element not admitted: value=%.1f", s.Value())
	}
	// Instance count stays O(log(2k)/log(1+beta)).
	bound := int(math.Log(2*10*50)/math.Log1p(0.3)) + 2
	if got := s.Stats().Instances; got > bound {
		t.Fatalf("instances = %d, want <= %d", got, bound)
	}
}

func TestStatsCounters(t *testing.T) {
	for _, kind := range allKinds() {
		o := NewFactory(kind, 0.1, nil)(2)
		for i := 0; i < 7; i++ {
			o.Process(SliceElement(stream.UserID(i), []stream.UserID{stream.UserID(i)}))
		}
		if got := o.Stats().Elements; got != 7 {
			t.Errorf("%v: Elements = %d, want 7", kind, got)
		}
	}
}

func TestKindString(t *testing.T) {
	names := map[Kind]string{
		SieveStreaming: "SieveStreaming", ThresholdStream: "ThresholdStream",
		BlogWatch: "BlogWatch", MkC: "MkC", Kind(99): "unknown",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), k.String(), want)
		}
	}
}

func TestConstructorPanics(t *testing.T) {
	cases := []func(){
		func() { NewSieve(0, 0.1, nil) },
		func() { NewSieve(1, 0, nil) },
		func() { NewSieve(1, 1, nil) },
		func() { NewThreshold(0, 0.1, nil) },
		func() { NewThreshold(1, -0.1, nil) },
		func() { NewSwap(0, nil, false) },
		func() { NewFactory(Kind(42), 0.1, nil) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

// TestMkCBeatsOrMatchesBlogWatch: the full-scan variant must never end below
// the min-weight-victim variant on identical input.
func TestMkCAtLeastBlogWatch(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	worse := 0
	for trial := 0; trial < 30; trial++ {
		inst := randomInstance(rng, 25, 40, 4)
		bw := NewSwap(inst.k, nil, false)
		mkc := NewSwap(inst.k, nil, true)
		order := rand.New(rand.NewSource(int64(trial)))
		inst.feed(order, bw)
		order = rand.New(rand.NewSource(int64(trial)))
		inst.feed(order, mkc)
		if mkc.Value() < bw.Value()-1e-9 {
			worse++
		}
	}
	// Greedy-order effects can occasionally favour BlogWatch; require MkC to
	// win or tie in the clear majority of trials.
	if worse > 6 {
		t.Fatalf("MkC below BlogWatch in %d/30 trials", worse)
	}
}

func BenchmarkSieveProcess(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	o := NewSieve(50, 0.1, nil)
	set := make([]stream.UserID, 5)
	for i := 0; i < b.N; i++ {
		for j := range set {
			set[j] = stream.UserID(rng.Intn(10000))
		}
		o.Process(SliceElement(stream.UserID(rng.Intn(2000)), set))
	}
}

func BenchmarkSwapProcess(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	o := NewSwap(50, nil, false)
	set := make([]stream.UserID, 5)
	for i := 0; i < b.N; i++ {
		for j := range set {
			set[j] = stream.UserID(rng.Intn(10000))
		}
		o.Process(SliceElement(stream.UserID(rng.Intn(2000)), set))
	}
}

// scratchPool is the pool Candidates must return, read from scratch: the
// union of the live slots' seed lists and the best-ever answer, ascending.
func scratchPool(g *grid) []stream.UserID {
	pool := slices.Clone(g.Seeds())
	for _, s := range g.order {
		pool = append(pool, g.seeds[s]...)
	}
	slices.Sort(pool)
	return slices.Compact(pool)
}

// TestPoolVersionTracksCandidates pins the grid's cached pool: after every
// element and every Reset, Candidates equals the pool read from scratch.
// The stream mixes ordinary admissions with the retune churn that retires
// instances, and a Reset in the middle hands the oracle to a "new
// checkpoint". Each of the four poolVer bumps — admission, retirement, new
// best-ever answer, Reset — is needed here or in TestPoolVersionCountsNewBest.
func TestPoolVersionTracksCandidates(t *testing.T) {
	for _, flat := range []bool{false, true} {
		g := newGrid(4, 0.2, nil, flat)
		elems := append(randomElements(5, 40, 1500, 30), churnElements(60)...)
		pool, moved := g.Candidates(), 0
		step := func(label string, i int) {
			t.Helper()
			p := g.Candidates()
			if want := scratchPool(&g); !slices.Equal(p, want) {
				t.Fatalf("flat=%v %s %d: Candidates = %v, from scratch %v", flat, label, i, p, want)
			}
			if !slices.Equal(p, pool) {
				moved++
			}
			pool = p
		}
		for i, e := range elems {
			g.Process(e)
			step("element", i)
			if i == len(elems)/2 {
				g.Reset()
				step("reset after element", i)
			}
		}
		if moved < 20 {
			t.Fatalf("flat=%v: the pool changed %d times: the stream exercised nothing", flat, moved)
		}
	}
}

// TestPoolVersionCountsNewBest covers the pool change no admission or
// retirement announces. User 7 is admitted only by the low guesses; user 1's
// growing set retires those, leaving 7 in the pool through the best-ever
// answer alone; once a surviving instance overtakes that answer, 7 drops out
// of the pool on a refresh — and the cached pool must drop it too.
func TestPoolVersionCountsNewBest(t *testing.T) {
	g := newGrid(2, 0.2, nil, false)
	set := func(lo, n int) []stream.UserID {
		s := make([]stream.UserID, n)
		for i := range s {
			s[i] = stream.UserID(lo + i)
		}
		return s
	}
	g.Process(SliceElement(1, set(100, 10)))
	g.Process(SliceElement(7, set(200, 3)))
	pool := g.Candidates()
	if !slices.Equal(pool, []stream.UserID{1, 7}) {
		t.Fatalf("pool = %v, want [1 7]", pool)
	}
	quiet := false // 7 left the pool on an element that admitted and retired nothing
	for n := 11; n <= 40; n++ {
		e := SliceElement(1, set(100, n))
		e.Latest, e.LatestValid = stream.UserID(100+n-1), true
		before := g.poolVer
		g.Process(e)
		unannounced := g.poolVer == before
		p := g.Candidates()
		if want := scratchPool(&g); !slices.Equal(p, want) {
			t.Fatalf("|I(1)|=%d: Candidates = %v, from scratch %v", n, p, want)
		}
		quiet = quiet || unannounced && !slices.Equal(p, pool)
		pool = p
	}
	if !slices.Equal(pool, []stream.UserID{1}) || !quiet {
		t.Fatalf("pool = %v, changed by a refresh alone: %v; the script no longer reaches the case", pool, quiet)
	}
}

package oracle

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/stream"
	"repro/internal/submod"
	"repro/internal/uintset"
	"repro/internal/wire"
)

// sieveInst is one candidate solution of a sieve-style oracle, associated
// with one guess opt of the optimal value. SieveStreaming admits an element
// when the marginal gain clears the residual threshold
// (opt/2 − f(CX)) / (k − |CX|) (paper Eq. 2); ThresholdStream uses the flat
// threshold opt/(2k). The state is identical either way.
type sieveInst struct {
	opt     float64
	seeds   []stream.UserID
	inSeeds *uintset.Set
	cov     *submod.Coverage
	// gainUB caches, per non-seed candidate, an upper bound on its marginal
	// gain. Coverage growth only shrinks a candidate's gain, and between two
	// elements for the same user its influence set gains at most the
	// element's Latest member — so cached + weight(Latest) stays an upper
	// bound, and most re-offers are rejected with one lookup instead of a
	// scan over the influence set (the CELF idea applied inside a sieve
	// instance).
	gainUB map[uint32]float64
}

// instPool is a free list of retired sieve instances: retune() drops
// instances whose OPT guess fell behind m, and on a hot stream m grows many
// times, so recycling the coverage set, gain cache and seed slice removes a
// steady source of garbage from the ingestion path.
type instPool struct {
	free []*sieveInst
	w    submod.Weights
}

func (p *instPool) get(opt float64) *sieveInst {
	if n := len(p.free); n > 0 {
		inst := p.free[n-1]
		p.free = p.free[:n-1]
		inst.opt = opt
		return inst
	}
	return &sieveInst{
		opt:     opt,
		inSeeds: uintset.New(8),
		cov:     submod.NewCoverage(p.w),
		gainUB:  map[uint32]float64{},
	}
}

func (p *instPool) put(inst *sieveInst) {
	inst.seeds = inst.seeds[:0]
	inst.inSeeds.Reset()
	inst.cov.Reset()
	clear(inst.gainUB)
	p.free = append(p.free, inst)
}

// refGrid is the instance-major sieve grid this package shipped before its
// state went user-major, kept as the reference the new grid is compared
// against: one private seed set, coverage set and gain-bound map per
// candidate instance, every element offered to each instance in turn. It
// states the admission rule in its plainest form; grid must agree with it
// after every element (TestGridMatchesReference).
type refGrid struct {
	k    int
	beta float64
	w    submod.Weights
	flat bool // true = ThresholdStream's opt/(2k); false = Sieve's residual

	m     float64 // max singleton value observed
	insts []*sieveInst
	jLo   int
	logB  float64 // log(1+beta), cached
	pool  instPool

	elements int64

	// bestVal/bestSeeds remember the best solution ever observed (kept
	// monotone for SIC's Lemma 2: instance deletion during retune could
	// otherwise make Value() dip; the remembered seed set stays valid
	// because influence sets only grow within a checkpoint's suffix).
	// dirty marks bestVal stale after new elements.
	bestVal   float64
	bestSeeds []stream.UserID
	dirty     bool
}

func newRefGrid(k int, beta float64, w submod.Weights, flat bool) *refGrid {
	if k < 1 {
		panic("oracle: k must be >= 1")
	}
	if beta <= 0 || beta >= 1 {
		panic("oracle: beta must be in (0, 1)")
	}
	return &refGrid{k: k, beta: beta, w: w, flat: flat, logB: math.Log1p(beta), pool: instPool{w: w}}
}

// singleton returns f({e}): the element's full value, an upper bound on its
// marginal gain for every instance.
func (g *refGrid) singleton(e Element) float64 {
	if g.w == nil {
		return float64(len(e.Prefix))
	}
	v := 0.0
	for _, c := range e.Prefix {
		v += g.w.Weight(c.V)
	}
	return v
}

// Process implements Oracle: the serial sweep over every instance.
func (g *refGrid) Process(e Element) {
	g.elements++
	sv := g.singleton(e)
	if sv == 0 {
		return
	}
	if sv > g.m {
		g.m = sv
		g.retune()
	}
	g.dirty = true
	for _, inst := range g.insts {
		g.feed(inst, e, sv)
	}
}

// retune maintains the instance range after m grew: instances whose OPT
// guess fell below m are recycled through the free list (they can no longer
// be the right guess), and instances up to 2km are created. Lazy
// instantiation preserves the guarantee because a fresh instance only needs
// to see elements arriving after the point where its guess became plausible
// (Badanidiyuru et al. §4). The monotone best-ever cache keeps Value() from
// dipping when instances are dropped.
func (g *refGrid) retune() {
	g.refresh() // bank the current best before dropping instances
	lo := int(math.Ceil(math.Log(g.m)/g.logB - 1e-9))
	hi := int(math.Floor(math.Log(2*float64(g.k)*g.m)/g.logB + 1e-9))
	next := make([]*sieveInst, hi-lo+1)
	for old, inst := range g.insts {
		if j := old + g.jLo; j < lo || j > hi {
			g.pool.put(inst)
		} else {
			next[j-lo] = inst
		}
	}
	for j := lo; j <= hi; j++ {
		if next[j-lo] == nil {
			next[j-lo] = g.pool.get(math.Pow(1+g.beta, float64(j)))
		}
	}
	g.insts, g.jLo = next, lo
}

// feed offers the current element to one instance. singleton, the element's
// full value, upper-bounds its marginal gain and lets instances with high
// thresholds reject without scanning coverage.
func (g *refGrid) feed(inst *sieveInst, e Element, singleton float64) {
	if inst.inSeeds.Has(uint32(e.User)) {
		// e.User is already a seed: its influence set grew, merge the
		// coverage. No threshold test — the candidate stores users, so this
		// costs no budget and only increases the value (Theorem 2's
		// monotonicity). With Latest metadata the merge is a single insert.
		if e.LatestValid {
			inst.cov.Add(e.Latest)
			return
		}
		for _, c := range e.Prefix {
			inst.cov.Add(c.V)
		}
		return
	}
	if len(inst.seeds) >= g.k {
		return
	}
	var threshold float64
	if g.flat {
		threshold = inst.opt / (2 * float64(g.k))
	} else {
		threshold = (inst.opt/2 - inst.cov.Value()) / float64(g.k-len(inst.seeds))
	}
	if singleton < threshold {
		return // gain <= singleton cannot clear the threshold
	}
	if e.LatestValid {
		if ub, ok := inst.gainUB[uint32(e.User)]; ok {
			w := 1.0
			if g.w != nil {
				w = g.w.Weight(e.Latest)
			}
			ub += w
			if ub < threshold {
				// Still below the bar even if the new member is uncovered.
				inst.gainUB[uint32(e.User)] = ub
				return
			}
		}
	}
	// Accumulate the marginal gain only until the admission condition is
	// decided: gain can only grow, so the scan stops at the threshold.
	gain := 0.0
	for _, c := range e.Prefix {
		gain += inst.cov.Gain(c.V)
		if gain >= threshold && gain > 0 {
			inst.seeds = append(inst.seeds, e.User)
			inst.inSeeds.Add(uint32(e.User))
			for _, c2 := range e.Prefix {
				inst.cov.Add(c2.V)
			}
			return
		}
	}
	inst.gainUB[uint32(e.User)] = gain
}

// refresh folds the current best instance into the monotone best-ever cache.
func (g *refGrid) refresh() {
	if !g.dirty {
		return
	}
	g.dirty = false
	for _, inst := range g.insts {
		if v := inst.cov.Value(); v > g.bestVal {
			g.bestVal = v
			g.bestSeeds = append(g.bestSeeds[:0], inst.seeds...)
		}
	}
}

// Value implements Oracle.
func (g *refGrid) Value() float64 {
	g.refresh()
	return g.bestVal
}

// Seeds implements Oracle.
func (g *refGrid) Seeds() []stream.UserID {
	g.refresh()
	return g.bestSeeds
}

// Candidates implements CandidateSource: the deduplicated union of every
// live instance's seed set plus the monotone best-ever answer, sorted
// ascending. Instances with different OPT guesses admit different users, so
// the union is a strictly richer pool than Seeds() — exactly what a
// distributed merge layer wants to re-score.
func (g *refGrid) Candidates() []stream.UserID {
	g.refresh()
	seen := uintset.New(8)
	var out []stream.UserID
	add := func(users []stream.UserID) {
		for _, u := range users {
			if !seen.Has(uint32(u)) {
				seen.Add(uint32(u))
				out = append(out, u)
			}
		}
	}
	add(g.bestSeeds)
	for _, inst := range g.insts {
		add(inst.seeds)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Stats implements Oracle.
func (g *refGrid) Stats() Stats { return Stats{Instances: len(g.insts), Elements: g.elements} }

// setStream synthesizes a set-stream the way the checkpoint frameworks feed
// oracles: users re-emit influence sets that grow by at most one member per
// element, and Latest names that member. It keeps the sets, so a stream can
// be taken in instalments.
type setStream struct {
	rng           *rand.Rand
	users, maxSet int
	sets          map[stream.UserID][]stream.UserID
}

func newSetStream(seed int64, users, maxSet int) *setStream {
	return &setStream{
		rng: rand.New(rand.NewSource(seed)), users: users, maxSet: maxSet,
		sets: make(map[stream.UserID][]stream.UserID, users),
	}
}

func (g *setStream) take(rounds int) []Element {
	out := make([]Element, 0, rounds)
	for r := 0; r < rounds; r++ {
		u := stream.UserID(g.rng.Intn(g.users))
		v := stream.UserID(g.rng.Intn(g.maxSet))
		grew := !slices.Contains(g.sets[u], v)
		if grew {
			g.sets[u] = append(g.sets[u], v)
		}
		e := SliceElement(u, g.sets[u])
		if grew {
			e.Latest, e.LatestValid = v, true
		}
		out = append(out, e)
	}
	return out
}

func randomElements(seed int64, users, rounds, maxSet int) []Element {
	return newSetStream(seed, users, maxSet).take(rounds)
}

// churnElements is a growing-singleton stream: every element's set is one
// member larger than the last, so m rises on each one and the grid keeps
// retiring instances and reusing their slots. Seven users take turns at one
// shared, growing set, two elements a turn: the first adopts everything the
// others added since the user's last turn — several members, so it carries
// no Latest — and the second adds one more, which Latest names. The users
// are the stream's own (1000–1006), so it can follow a setStream.
func churnElements(n int) []Element {
	set := make([]stream.UserID, 0, n)
	out := make([]Element, 0, n)
	for i := 0; i < n; i++ {
		set = append(set, stream.UserID(i))
		e := SliceElement(stream.UserID(1000+i/2%7), set)
		if i%2 == 1 {
			e.Latest, e.LatestValid = stream.UserID(i), true
		}
		out = append(out, e)
	}
	return out
}

// checkLatestContract fails the test unless elems honours what the sieve
// grid's admission rule takes from Element's contract: a user's influence
// set never loses a member from one of its elements to the next, and an
// element with LatestValid gained no member other than Latest.
func checkLatestContract(t *testing.T, elems []Element) {
	t.Helper()
	prev := map[stream.UserID]map[stream.UserID]bool{}
	for i, e := range elems {
		cur := make(map[stream.UserID]bool, len(e.Prefix))
		for _, c := range e.Prefix {
			cur[c.V] = true
			if e.LatestValid && c.V != e.Latest && !prev[e.User][c.V] {
				t.Fatalf("element %d: user %d gained %d, Latest says %d", i, e.User, c.V, e.Latest)
			}
		}
		for v := range prev[e.User] {
			if !cur[v] {
				t.Fatalf("element %d: user %d lost member %d", i, e.User, v)
			}
		}
		prev[e.User] = cur
	}
}

// TestGeneratorsHonourLatestContract: the identity tests below compare two
// admission rules that are both sound only on streams honouring the
// contract, so every generator is held to it.
func TestGeneratorsHonourLatestContract(t *testing.T) {
	checkLatestContract(t, randomElements(1, 80, 2500, 400))
	checkLatestContract(t, churnElements(150))
	checkLatestContract(t, append(randomElements(2, 80, 500, 400), churnElements(150)...))
	checkLatestContract(t, persistElements(400, 17))
	written, cont := goldenStream()
	checkLatestContract(t, append(written[:goldenRandom:goldenRandom], cont...))
}

func testWeights() submod.Weights {
	return submod.WeightFunc(func(v stream.UserID) float64 { return 1 + float64(v%5)/3 })
}

func stateBytes(t *testing.T, o interface{ SaveState(*wire.Writer) error }) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := o.SaveState(wire.NewWriter(&buf)); err != nil {
		t.Fatalf("SaveState: %v", err)
	}
	return buf.Bytes()
}

// gridState is a sieve grid's state in one shape for the grid's version 2
// payload and the reference's instances: floats as their bits, instances in
// exponent order, each with its covered users ascending.
type gridState struct {
	elements  int64
	m         uint64
	jLo       int64
	insts     []instState
	bestVal   uint64
	bestSeeds []stream.UserID
	dirty     bool
}

type instState struct {
	slot       int // the payload's; the reference has none
	opt, value uint64
	seeds, cov []stream.UserID
}

// savedState takes g's version 2 payload apart.
func savedState(t *testing.T, g *grid) gridState {
	t.Helper()
	r := wire.NewReader(bytes.NewReader(stateBytes(t, g)))
	users := func() []stream.UserID {
		us := []stream.UserID{}
		for i, n := 0, r.Len(maxLen); i < n && r.Err() == nil; i++ {
			us = append(us, stream.UserID(r.Uvarint()))
		}
		return us
	}
	if v := r.Uvarint(); v != gridPayloadVersion {
		t.Fatalf("payload version %d, want %d", v, gridPayloadVersion)
	}
	st := gridState{elements: r.Varint(), m: r.U64(), jLo: r.Varint()}
	inst := map[int]int{} // slot → instance
	for i, n := 0, r.Len(maxLen); i < n && r.Err() == nil; i++ {
		slot := int(r.Uvarint())
		inst[slot] = i
		st.insts = append(st.insts, instState{slot: slot, opt: r.U64(), seeds: users(), value: r.U64(), cov: []stream.UserID{}})
	}
	user := uint64(0)
	for i, n := 0, r.Len(maxLen); i < n && r.Err() == nil; i++ {
		user += r.Uvarint()
		for wi := range g.live {
			for word := r.U64(); word != 0; word &= word - 1 {
				j := inst[wi<<6|bits.TrailingZeros64(word)]
				st.insts[j].cov = append(st.insts[j].cov, stream.UserID(user-1))
			}
		}
	}
	st.bestVal, st.bestSeeds, st.dirty = r.U64(), users(), r.Bool()
	if err := r.Err(); err != nil {
		t.Fatalf("parsing sieve payload: %v", err)
	}
	return st
}

// refState is the reference's state in savedState's shape.
func refState(g *refGrid) gridState {
	st := gridState{
		elements: g.elements, m: math.Float64bits(g.m), jLo: int64(g.jLo),
		bestVal: math.Float64bits(g.bestVal), bestSeeds: append([]stream.UserID{}, g.bestSeeds...), dirty: g.dirty,
	}
	for _, inst := range g.insts {
		cov := []stream.UserID{}
		for v := stream.UserID(0); len(cov) < inst.cov.Len(); v++ {
			if inst.cov.Has(v) {
				cov = append(cov, v)
			}
		}
		st.insts = append(st.insts, instState{
			slot: -1, opt: math.Float64bits(inst.opt), value: math.Float64bits(inst.cov.Value()),
			seeds: append([]stream.UserID{}, inst.seeds...), cov: cov,
		})
	}
	return st
}

// checkStateAgainstReference compares the grid's state with the
// reference's. What the grid saves must be the reference's instances, each
// in the slot the grid's order gives it. The gain bounds, which the grid
// does not save, are where the two rules differ — the reference adds
// Latest's weight on every re-offer, the grid only where the slot does not
// cover Latest, and each rescans when its own bound reaches the threshold —
// so the grid's, read from its table, are held to what makes them bounds.
// Both rules cache an entry at the same moments (a first scan that
// rejects), so the entries are the same; and for every entry an instance
// can still read, the user's true marginal gain, recomputed from the
// reference's private coverage and the user's latest set, is at most the
// grid's bound, which is at most the set's full value (every weight the
// rule adds belongs to a distinct member).
func checkStateAgainstReference(t *testing.T, g *grid, ref *refGrid, last map[stream.UserID]Element) {
	t.Helper()
	got, want := savedState(t, g), refState(ref)
	for i := range got.insts {
		if s := got.insts[i].slot; s != g.order[i] {
			t.Fatalf("instance %d saved in slot %d, the grid holds it in %d", i, s, g.order[i])
		}
		got.insts[i].slot = -1
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("the saved state differs from the reference's")
	}
	const ulps = 1e-9 // bound and gain sum the same weights in different orders
	for i, inst := range ref.insts {
		bounds := map[stream.UserID]float64{}
		for _, c := range g.gainUB.index {
			if c == 0 {
				continue
			}
			if row := g.gainUB.at(c); row.get(g.order[i]) >= 0 {
				bounds[stream.UserID(c>>32)] = row.get(g.order[i])
			}
		}
		if len(bounds) != len(inst.gainUB) {
			t.Fatalf("instance %d: %d gain bounds, reference %d", i, len(bounds), len(inst.gainUB))
		}
		for u := range inst.gainUB {
			ub, ok := bounds[stream.UserID(u)]
			if !ok {
				t.Fatalf("instance %d: no gain bound for user %d", i, u)
			}
			if len(inst.seeds) >= ref.k || inst.inSeeds.Has(u) {
				continue // full, or u admitted since: the entry is never read again
			}
			gain := 0.0
			for _, c := range last[stream.UserID(u)].Prefix {
				gain += inst.cov.Gain(c.V)
			}
			if full := ref.singleton(last[stream.UserID(u)]); ub < gain-ulps || ub > full+ulps {
				t.Fatalf("instance %d user %d: bound %v outside [true gain %v, set value %v]", i, u, ub, gain, full)
			}
		}
	}
}

// TestGridMatchesReference is the bit-identity contract of the user-major
// layout and of the delta-exact gain bounds: for both admission rules,
// cardinality and weighted objectives, one-word and multi-word rows, with
// and without Latest metadata, the grid and the instance-major reference —
// which keeps the looser bound rule the grid shipped with — agree on Value
// after every element and on Seeds, Candidates, Stats and the serialized
// state (checkStateAgainstReference) periodically. The stream ends in a
// growing-singleton run that retires and reuses slots.
func TestGridMatchesReference(t *testing.T) {
	shapes := []struct {
		k    int
		beta float64
	}{{10, .1}, {50, .1}, {5, .3}, {3, .5}, {200, .05}, {200, .04}}
	for _, flat := range []bool{false, true} {
		for _, weighted := range []bool{false, true} {
			for _, sh := range shapes {
				for _, latest := range []bool{true, false} {
					name := fmt.Sprintf("flat=%v/weighted=%v/k=%d/beta=%v/latest=%v", flat, weighted, sh.k, sh.beta, latest)
					t.Run(name, func(t *testing.T) {
						var w submod.Weights
						if weighted {
							w = testWeights()
						}
						got := newGrid(sh.k, sh.beta, w, flat)
						ref := newRefGrid(sh.k, sh.beta, w, flat)
						elems := append(randomElements(int64(sh.k), 80, 2500, 400), churnElements(150)...)
						last := map[stream.UserID]Element{}
						for i, e := range elems {
							e.LatestValid = e.LatestValid && latest
							got.Process(e)
							ref.Process(e)
							last[e.User] = e
							if gv, rv := got.Value(), ref.Value(); gv != rv {
								t.Fatalf("element %d: value %v, reference %v", i, gv, rv)
							}
							if i%97 != 0 && i != len(elems)-1 {
								continue
							}
							if gs, rs := got.Seeds(), ref.Seeds(); !reflect.DeepEqual(gs, rs) {
								t.Fatalf("element %d: seeds %v, reference %v", i, gs, rs)
							}
							if gc, rc := got.Candidates(), ref.Candidates(); !reflect.DeepEqual(gc, rc) {
								t.Fatalf("element %d: candidates %v, reference %v", i, gc, rc)
							}
							gs, rs := got.Stats(), ref.Stats()
							if gs.Scans > gs.Elements || gs.ScanMembers < gs.Scans || gs.SlotVisits < gs.Scans {
								t.Fatalf("element %d: stats %+v: more scans than elements, or scans that probed nothing or visited no slot", i, gs)
							}
							gs.Scans, gs.ScanMembers, gs.SlotVisits = 0, 0, 0 // the reference does not count its work
							if gs != rs {
								t.Fatalf("element %d: stats %+v, reference %+v", i, gs, rs)
							}
							checkStateAgainstReference(t, &got, ref, last)
						}
					})
				}
			}
		}
	}
	if w := len(newGrid(200, .04, nil, false).live); w != 3 {
		t.Fatalf("k=200 beta=.04 uses %d mask words, want the 3-word case covered", w)
	}
}

// TestInstanceRecycling pins the slot lifecycle on the stream built to
// stress it: singleton values that keep growing force a retune on every
// element, and a reused slot must be indistinguishable from a fresh one —
// a stale cov or seedOf bit, gain bound or seed list left behind by retune
// diverges the grid from the reference, which shares nothing between
// instances.
func TestInstanceRecycling(t *testing.T) {
	got := NewSieve(5, 0.3, nil)
	ref := newRefGrid(5, 0.3, nil, false)
	reused := 0
	used := map[int]bool{} // slots some instance has held
	last := map[stream.UserID]Element{}
	for i, e := range churnElements(200) {
		before := append([]int(nil), got.order...)
		got.Process(e)
		ref.Process(e)
		last[e.User] = e
		for _, s := range got.order {
			if used[s] && !slices.Contains(before, s) {
				reused++
			}
			used[s] = true
		}
		if gv, rv := got.Value(), ref.Value(); gv != rv {
			t.Fatalf("element %d: value %v, reference %v", i, gv, rv)
		}
	}
	if got.Value() <= 0 {
		t.Fatal("oracle made no progress")
	}
	if reused == 0 {
		t.Fatal("stream never reused a slot; recycling path untested")
	}
	if !reflect.DeepEqual(got.Seeds(), ref.Seeds()) {
		t.Fatalf("seeds diverged: %v vs %v", got.Seeds(), ref.Seeds())
	}
	checkStateAgainstReference(t, &got.grid, ref, last)
}

// TestGridResetIsFresh: a grid that ran one stream and was Reset is a fresh
// grid — same answers after every element of a second stream, same
// candidates, counters and SaveState bytes — whatever the first stream left
// behind in its tables, gain-bound rows, seed lists and retired slots.
func TestGridResetIsFresh(t *testing.T) {
	first := append(randomElements(5, 80, 2500, 400), churnElements(150)...)
	second := append(randomElements(6, 90, 2000, 300), churnElements(120)...)
	for _, sh := range []struct {
		k    int
		beta float64
	}{{10, .1}, {200, .04}} { // one- and three-word rows
		for _, flat := range []bool{false, true} {
			for _, weighted := range []bool{false, true} {
				t.Run(fmt.Sprintf("k=%d/beta=%v/flat=%v/weighted=%v", sh.k, sh.beta, flat, weighted), func(t *testing.T) {
					var w submod.Weights
					if weighted {
						w = testWeights()
					}
					used, fresh := newGrid(sh.k, sh.beta, w, flat), newGrid(sh.k, sh.beta, w, flat)
					for _, e := range first {
						used.Process(e)
					}
					used.Value()
					used.Reset()
					if !bytes.Equal(stateBytes(t, &used), stateBytes(t, &fresh)) {
						t.Fatal("a reset grid does not save like a new one")
					}
					for i, e := range second {
						used.Process(e)
						fresh.Process(e)
						if uv, fv := used.Value(), fresh.Value(); uv != fv {
							t.Fatalf("element %d: value %v, fresh grid %v", i, uv, fv)
						}
						if i%97 != 0 && i != len(second)-1 {
							continue
						}
						if us, fs := used.Seeds(), fresh.Seeds(); !slices.Equal(us, fs) {
							t.Fatalf("element %d: seeds %v, fresh grid %v", i, us, fs)
						}
						if uc, fc := used.Candidates(), fresh.Candidates(); !slices.Equal(uc, fc) {
							t.Fatalf("element %d: candidates %v, fresh grid %v", i, uc, fc)
						}
						if us, fs := used.Stats(), fresh.Stats(); us != fs {
							t.Fatalf("element %d: stats %+v, fresh grid %+v", i, us, fs)
						}
						if !bytes.Equal(stateBytes(t, &used), stateBytes(t, &fresh)) {
							t.Fatalf("element %d: SaveState bytes differ from the fresh grid's", i)
						}
					}
				})
			}
		}
	}
}

// goldenCases name the SaveState payloads in testdata, grid_v2_<name>.bin,
// each written after goldenStream's written part by the grid that writes its
// tables as memory holds them (TestGoldenStateV2 -update).
var goldenCases = []struct {
	name     string
	kind     Kind
	k        int
	beta     float64
	weighted bool
}{
	{"sieve_k50_b10", SieveStreaming, 50, 0.1, false},
	{"threshold_k10_b10_weighted", ThresholdStream, 10, 0.1, true},
	{"sieve_k200_b03_weighted", SieveStreaming, 200, 0.03, true},
}

var updateGolden = flag.Bool("update", false, "rewrite testdata/grid_v2_*.bin from this tree's grid")

// goldenRandom is how many setStream elements open the golden stream.
const goldenRandom = 3000

// goldenStream returns the stream the golden payloads were written after
// and 500 elements continuing it. The written part ends in the churn tail
// as it was then: seven users sharing one growing set, so each element grew
// its user's set by seven members while Latest named one. That breaks
// Element's contract — the bounds it cached for users 0–6 bound nothing —
// and the tail survives only because the committed bytes came after it;
// users 0–6 stay silent in the continuation, so nothing leans on them.
func goldenStream() (written, cont []Element) {
	g := newSetStream(11, 60, 300)
	written = g.take(goldenRandom)
	set := make([]stream.UserID, 0, 120)
	for i := 0; i < 120; i++ {
		set = append(set, stream.UserID(i))
		e := SliceElement(stream.UserID(i%7), set)
		e.Latest, e.LatestValid = stream.UserID(i), true
		written = append(written, e)
	}
	for _, e := range g.take(600) {
		if e.User >= 7 && len(cont) < 500 {
			cont = append(cont, e)
		}
	}
	return written, cont
}

// restoreGolden restores payload onto a fresh oracle of tc's configuration.
func restoreGolden(t *testing.T, kind Kind, k int, beta float64, w submod.Weights, payload []byte) Persistent {
	t.Helper()
	o := NewFactory(kind, beta, w)(k).(Persistent)
	if err := o.RestoreState(wire.NewReader(bytes.NewReader(payload))); err != nil {
		t.Fatalf("RestoreState: %v", err)
	}
	return o
}

// decidesLikeReference feeds cont to o and to a reference that was fed
// written first, and fails unless the two agree on the value after every
// element and on the seeds and candidates at the end.
func decidesLikeReference(t *testing.T, o Persistent, ref *refGrid, cont []Element) {
	t.Helper()
	for i, e := range cont {
		o.Process(e)
		ref.Process(e)
		if rv, fv := o.Value(), ref.Value(); rv != fv {
			t.Fatalf("element %d after restore: value %v, reference %v", i, rv, fv)
		}
	}
	if rs, fs := o.Seeds(), ref.Seeds(); !reflect.DeepEqual(rs, fs) {
		t.Fatalf("after restore: seeds %v, reference %v", rs, fs)
	}
	if rc, fc := o.(CandidateSource).Candidates(), ref.Candidates(); !reflect.DeepEqual(rc, fc) {
		t.Fatalf("after restore: candidates %v, reference %v", rc, fc)
	}
}

// TestGoldenStateV1: a version 1 payload, written after goldenStream's
// written part by the instance-major grid of the commit before the grid
// saved its tables as memory holds them (testdata/grid_v1_<name>.bin, kept
// for the first golden case), is refused by version, not misread as
// version 2.
func TestGoldenStateV1(t *testing.T) {
	tc := goldenCases[0]
	t.Run(tc.name, func(t *testing.T) {
		old, err := os.ReadFile(filepath.Join("testdata", "grid_v1_"+tc.name+".bin"))
		if err != nil {
			t.Fatal(err)
		}
		o := NewFactory(tc.kind, tc.beta, nil)(tc.k).(Persistent)
		if err := o.RestoreState(wire.NewReader(bytes.NewReader(old))); err == nil || !strings.Contains(err.Error(), "version 1") {
			t.Fatalf("RestoreState of a v1 payload: err = %v, want one naming version 1", err)
		}
	})
}

// TestGoldenStateV2 pins the version 2 payload: the grid fed goldenStream's
// written part still saves the committed bytes, a grid restored from them
// re-saves them byte for byte, and it keeps deciding like the reference fed
// the same stream.
func TestGoldenStateV2(t *testing.T) {
	written, cont := goldenStream()
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join("testdata", "grid_v2_"+tc.name+".bin")
			var w submod.Weights
			if tc.weighted {
				w = testWeights()
			}
			fed := NewFactory(tc.kind, tc.beta, w)(tc.k).(Persistent)
			for _, e := range written {
				fed.Process(e)
			}
			if *updateGolden {
				if err := os.WriteFile(path, stateBytes(t, fed), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(stateBytes(t, fed), want) {
				t.Fatal("the grid fed the golden stream no longer saves the committed payload")
			}
			restored := restoreGolden(t, tc.kind, tc.k, tc.beta, w, want)
			if !bytes.Equal(stateBytes(t, restored), want) {
				t.Fatal("restored payload does not re-save byte-identically")
			}
			ref := newRefGrid(tc.k, tc.beta, w, tc.kind == ThresholdStream)
			for _, e := range written {
				ref.Process(e)
			}
			decidesLikeReference(t, restored, ref, cont)
		})
	}
}

package core

import (
	"fmt"
	"testing"

	"repro/internal/dataio"
	"repro/internal/fault"
	"repro/internal/oracle"
	"repro/internal/stream"
)

// recOracle is a real checkpoint oracle that also remembers, per user, the
// size of the influence set it was last handed, and reports an element that
// brings the same size again: within one checkpoint's suffix a user's set
// only grows, so an equal size is an unchanged set.
type recOracle struct {
	oracle.Oracle
	last   map[stream.UserID]int
	reoffs *[]string
}

func (r *recOracle) Process(e oracle.Element) {
	if n, ok := r.last[e.User]; ok && n == len(e.Prefix) {
		*r.reoffs = append(*r.reoffs, fmt.Sprintf("user %d re-offered with the same %d members", e.User, n))
	}
	r.last[e.User] = len(e.Prefix)
	r.Oracle.Process(e)
}

// TestFeedOnlyChangedSets is the Set-Stream Mapping's feed rule as a spec,
// checked after every Process / ProcessBatch call against a second,
// unbudgeted stream index that is never asked what changed:
//
//	(a) never fed unchanged — no checkpoint receives an element for a user
//	    whose influence set there is the one it last received;
//	(b) nothing changed goes unfed — for every user and live checkpoint the
//	    mirror's |I_start(u)| is the size that checkpoint was last handed.
//
// The budgeted cells spill continuously, so a performer's previous entry is
// as often in the contributor's cold extent as in its hot log: the rule must
// read the same from either tier, on the per-action and the batch path.
func TestFeedOnlyChangedSets(t *testing.T) {
	const (
		users  = 40
		budget = 1024 // 64 log entries: every cell spills many times
	)
	base := randomActions(21, 1200, users, 60, 0.7)
	gappy := make([]stream.Action, len(base))
	for i, a := range base { // IDs as timestamps: irregular gaps, parents remapped
		gappy[i] = a
		gappy[i].ID = a.ID*3 - a.ID%3
		if !a.Root() {
			gappy[i].Parent = gappy[a.Parent-1].ID
		}
	}
	sieve := oracle.NewFactory(oracle.SieveStreaming, 0.1, nil)
	for _, sparse := range []bool{false, true} {
		for _, batch := range []int{1, 7} {
			for _, byTime := range []bool{false, true} {
				for _, budgeted := range []bool{false, true} {
					name := fmt.Sprintf("sparse=%v/batch=%d/byTime=%v/budgeted=%v", sparse, batch, byTime, budgeted)
					t.Run(name, func(t *testing.T) {
						var reoffs []string
						cfg := Config{
							K: 4, N: 300, L: 20, Beta: 0.2, Sparse: sparse, ByTime: byTime,
							Oracle: func(k int) oracle.Oracle {
								return &recOracle{Oracle: sieve(k), last: map[stream.UserID]int{}, reoffs: &reoffs}
							},
						}
						actions := base
						if byTime {
							actions, cfg.N, cfg.L = gappy, 900, 60
						}
						if budgeted {
							store, err := dataio.OpenSegmentStore(fault.OS(), t.TempDir())
							if err != nil {
								t.Fatal(err)
							}
							defer store.Close()
							cfg.Cold, cfg.ColdBudget = store, budget
						}
						f := MustNew(cfg)
						checkFeedRule(t, f, actions, batch, users, &reoffs)
						if ts := f.st.TierStats(); budgeted && (ts.Spills == 0 || ts.ColdFaults == 0) {
							t.Fatalf("budget %d never reached the cold tier: %+v", budget, ts)
						}
					})
				}
			}
		}
	}
}

// checkFeedRule runs actions through f in batches of the given size and
// asserts both halves of the rule after every call; f's oracles are
// recOracles reporting into reoffs.
func checkFeedRule(t *testing.T, f *Framework, actions []stream.Action, batch, users int, reoffs *[]string) {
	t.Helper()
	mirror := stream.New()
	for lo := 0; lo < len(actions); lo += batch {
		chunk := actions[lo:min(lo+batch, len(actions))]
		if err := f.ProcessBatch(chunk); err != nil {
			t.Fatal(err)
		}
		if _, err := mirror.IngestBatch(chunk); err != nil {
			t.Fatal(err)
		}
		mirror.Advance(f.st.Horizon())
		at := chunk[len(chunk)-1].ID
		if len(*reoffs) > 0 {
			t.Fatalf("t=%d: fed an unchanged set: %s", at, (*reoffs)[0])
		}
		for _, cp := range f.cps {
			rec := cp.oracle.(*recOracle)
			for u := stream.UserID(0); int(u) < users; u++ {
				if want, got := len(mirror.InfluenceSet(u, cp.start)), rec.last[u]; want != got {
					t.Fatalf("t=%d: checkpoint %d last saw %d members of I(%d), the set has %d", at, cp.start, got, u, want)
				}
			}
		}
	}
	if err := f.st.ColdErr(); err != nil {
		t.Fatal(err)
	}
	if f.Stats().ElementsFed == 0 {
		t.Fatal("vacuous run: no element fed")
	}
}

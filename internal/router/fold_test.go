package router

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/api"
	"repro/query"
	"repro/sim"
)

// TestHeadFold pins the one fold under every merged read: processed sums,
// and the window start is the oldest among shards that have processed
// anything — the first shard's when none has — wherever the empty shards sit.
func TestHeadFold(t *testing.T) {
	type shard struct {
		processed   int64
		windowStart sim.ActionID
	}
	for _, c := range []struct {
		name   string
		shards []shard
		want   head
	}{
		{"one shard", []shard{{10, 3}}, head{Processed: 10, WindowStart: 3}},
		{"oldest wins", []shard{{10, 7}, {5, 3}, {1, 9}}, head{Processed: 16, WindowStart: 3}},
		{"empty shard first", []shard{{0, -100}, {2, 5}}, head{Processed: 2, WindowStart: 5}},
		{"empty shard last", []shard{{2, 5}, {0, -100}}, head{Processed: 2, WindowStart: 5}},
		{"empty shard between", []shard{{4, 8}, {0, -100}, {2, 5}}, head{Processed: 6, WindowStart: 5}},
		{"a short stream's negative start still counts", []shard{{3, 1}, {2, -4}}, head{Processed: 5, WindowStart: -4}},
		{"all empty", []shard{{0, -100}, {0, -100}}, head{Processed: 0, WindowStart: -100}},
	} {
		var h head
		for i, s := range c.shards {
			h.add(i == 0, s.processed, s.windowStart)
		}
		if h != c.want {
			t.Errorf("%s: head %+v, want %+v", c.name, h, c.want)
		}
	}
}

// TestMergeFunctions runs every pure merge on hand-written parts. Each case
// is checked once with a whole head and once with a partial one, which must
// change the DTO's Partial field and nothing else.
func TestMergeFunctions(t *testing.T) {
	h := head{Processed: 30, WindowStart: 4}
	cand := func(u sim.UserID, gain float64, name string) api.CandidateSeed {
		return api.CandidateSeed{User: u, Name: name, Coverage: gain, Gain: gain}
	}
	spec := api.Spec{K: 2, Window: 100}
	x, y, z := 0.1, 0.2, 0.3 // variables: a constant sum would be exact
	cases := []struct {
		name  string
		merge func(head) any
		want  any
		// setPartial flips the expected DTO's Partial field.
		setPartial func(any) any
	}{
		{"list",
			func(h head) any {
				return mergeList(h, []api.ListResponse{
					{Trackers: []api.TrackerInfo{{Name: "b", Spec: spec, Processed: 3}, {Name: "a", Spec: spec, Processed: 1}}},
					{Trackers: []api.TrackerInfo{{Name: "a", Spec: api.Spec{K: 9}, Processed: 10}, {Name: "c", Spec: spec, Processed: 5}}},
				})
			},
			api.ListResponse{Trackers: []api.TrackerInfo{
				{Name: "a", Spec: spec, Processed: 11}, {Name: "b", Spec: spec, Processed: 3}, {Name: "c", Spec: spec, Processed: 5}}},
			func(v any) any { r := v.(api.ListResponse); r.Partial = true; return r }},
		{"list of nothing",
			func(h head) any { return mergeList(h, []api.ListResponse{{}}) },
			api.ListResponse{Trackers: []api.TrackerInfo{}},
			func(v any) any { r := v.(api.ListResponse); r.Partial = true; return r }},
		{"seeds: gain descending, ties to the lower user, k the fleet's budget",
			func(h head) any {
				return mergeSeeds(h, []api.CandidatesResponse{
					{K: 4, Candidates: []api.CandidateSeed{cand(9, 5, ""), cand(2, 3, ""), cand(8, 1, "")}},
					{K: 4, Candidates: []api.CandidateSeed{cand(4, 5, ""), cand(1, 3, "")}},
				})
			},
			api.SeedsResponse{Seeds: []sim.UserID{4, 9, 1, 2}, Value: 16, WindowStart: 4, Processed: 30},
			func(v any) any { r := v.(api.SeedsResponse); r.Partial = true; return r }},
		{"seeds, name mode: ties to the lower shard, names are the identity",
			func(h head) any {
				return mergeSeeds(h, []api.CandidatesResponse{
					{K: 3, Candidates: []api.CandidateSeed{cand(9, 5, "ann"), cand(2, 3, "bob")}},
					{K: 3, Candidates: []api.CandidateSeed{cand(4, 5, "cy"), cand(1, 3, "di")}},
				})
			},
			api.SeedsResponse{Seeds: []sim.UserID{9, 4, 2}, Names: []string{"ann", "cy", "bob"}, Value: 13, WindowStart: 4, Processed: 30},
			func(v any) any { r := v.(api.SeedsResponse); r.Partial = true; return r }},
		{"seeds from empty pools",
			func(h head) any { return mergeSeeds(h, []api.CandidatesResponse{{K: 3}, {K: 3}}) },
			api.SeedsResponse{Seeds: []sim.UserID{}, WindowStart: 4, Processed: 30},
			func(v any) any { r := v.(api.SeedsResponse); r.Partial = true; return r }},
		{"candidates",
			func(h head) any {
				return mergeCandidates(h, []api.CandidatesResponse{
					{K: 2, Value: 1.5, Candidates: []api.CandidateSeed{cand(1, 2, "")}},
					{K: 3, Value: 2.25, Candidates: []api.CandidateSeed{cand(7, 1, ""), cand(8, 1, "")}},
				})
			},
			api.CandidatesResponse{K: 3, Value: 3.75, WindowStart: 4, Processed: 30,
				Candidates: []api.CandidateSeed{cand(1, 2, ""), cand(7, 1, ""), cand(8, 1, "")}},
			func(v any) any { r := v.(api.CandidatesResponse); r.Partial = true; return r }},
		{"value",
			func(h head) any { return mergeValue(h, []api.ValueResponse{{Value: x}, {Value: y}, {Value: z}}) },
			api.ValueResponse{Value: (x + y) + z, Processed: 30}, // summed in shard order
			func(v any) any { r := v.(api.ValueResponse); r.Partial = true; return r }},
		{"window",
			func(h head) any { return mergeWindow(h, []api.WindowResponse{{WindowStart: 9, Processed: 1}}) },
			api.WindowResponse{WindowStart: 4, Processed: 30},
			func(v any) any { r := v.(api.WindowResponse); r.Partial = true; return r }},
		{"checkpoints: union by start, values summed where shared",
			func(h head) any {
				return mergeCheckpoints(h, []api.CheckpointsResponse{
					{Checkpoints: 2, Starts: []sim.ActionID{10, 30}, Values: []float64{1, 2}},
					{Checkpoints: 2, Starts: []sim.ActionID{20, 30}, Values: []float64{4, 8}},
				})
			},
			api.CheckpointsResponse{Checkpoints: 3, Starts: []sim.ActionID{10, 20, 30}, Values: []float64{1, 4, 10}},
			func(v any) any { r := v.(api.CheckpointsResponse); r.Partial = true; return r }},
		{"stats: counters add, the average is weighted by processed",
			func(h head) any {
				return mergeStats(h, []api.StatsResponse{
					{Stats: sim.Stats{Framework: sim.SIC, Oracle: sim.SieveStreaming, Processed: 10, Checkpoints: 3, ElementsFed: 100, AvgCheckpoints: 2},
						CheckpointsCreated: 5, CheckpointsDeleted: 2, QueueDepth: 1, QueueCapacity: 256},
					{Stats: sim.Stats{Framework: sim.SIC, Oracle: sim.SieveStreaming, Processed: 20, Checkpoints: 4, ElementsFed: 50, AvgCheckpoints: 5},
						CheckpointsCreated: 7, CheckpointsDeleted: 3, QueueDepth: 0, QueueCapacity: 256},
				})
			},
			api.StatsResponse{
				Stats:              sim.Stats{Framework: sim.SIC, Oracle: sim.SieveStreaming, Processed: 30, Checkpoints: 7, ElementsFed: 150, AvgCheckpoints: 4},
				CheckpointsCreated: 12, CheckpointsDeleted: 5, QueueDepth: 1, QueueCapacity: 512},
			func(v any) any { r := v.(api.StatsResponse); r.Partial = true; return r }},
		{"query: rows in shard order, truncated if any shard was",
			func(h head) any {
				return mergeQuery(h, []api.QueryResponse{
					{Columns: []string{"user"}, Rows: []query.Row{{query.IntValue(3)}}},
					{Columns: []string{"user"}, Rows: []query.Row{{query.IntValue(1)}, {query.IntValue(2)}}, Truncated: true},
				})
			},
			api.QueryResponse{Columns: []string{"user"}, Truncated: true, Processed: 30, WindowStart: 4,
				Rows: []query.Row{{query.IntValue(3)}, {query.IntValue(1)}, {query.IntValue(2)}}},
			func(v any) any { r := v.(api.QueryResponse); r.Partial = true; return r }},
	}
	for _, c := range cases {
		if got := c.merge(h); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s:\n got %+v\nwant %+v", c.name, got, c.want)
		}
		partial := h
		partial.Partial = true
		if got, want := c.merge(partial), c.setPartial(c.want); !reflect.DeepEqual(got, want) {
			t.Errorf("%s, partial:\n got %+v\nwant %+v", c.name, got, want)
		}
	}
}

// sortTruncate is the private top-k the router carried before it re-used the
// query package's operators: a stable sort of the merged rows and a cut, per
// trailing operator.
func sortTruncate(ops []query.Op, columns []string, rows []query.Row) []query.Row {
	start := len(ops)
	for start > 0 && (ops[start-1].Op == "topk" || ops[start-1].Op == "limit") {
		start--
	}
	for _, op := range ops[start:] {
		switch op.Op {
		case "topk":
			ci := -1
			for i, c := range columns {
				if c == op.Col {
					ci = i
					break
				}
			}
			if ci < 0 {
				continue
			}
			desc := op.Desc
			sort.SliceStable(rows, func(a, b int) bool {
				cmp := rows[a][ci].Compare(rows[b][ci])
				if desc {
					return cmp > 0
				}
				return cmp < 0
			})
			if op.K >= 0 && len(rows) > op.K {
				rows = rows[:op.K]
			}
		case "limit":
			if op.N >= 0 && len(rows) > op.N {
				rows = rows[:op.N]
			}
		}
	}
	return rows
}

// TestReapplyTrailingMatchesSortTruncate: re-running the trailing operators
// through query.TopK and query.Limit orders tie-heavy merged rows exactly as
// the sort/truncate it replaced did — ties in arrival (shard) order — for both
// directions, k and n on either side of the row count, and every trailing
// shape, a buried topk included.
func TestReapplyTrailingMatchesSortTruncate(t *testing.T) {
	columns := []string{"user", "influence", "tag"}
	rng := rand.New(rand.NewSource(9))
	topk := func(col string, k int, desc bool) query.Op { return query.Op{Op: "topk", Col: col, K: k, Desc: desc} }
	limit := func(n int) query.Op { return query.Op{Op: "limit", N: n} }
	filter := query.Op{Op: "filter", Col: "influence", Cmp: ">=", Value: new(query.Value)}
	for _, n := range []int{0, 1, 12, 40} {
		rows := make([]query.Row, n)
		for i := range rows {
			// Few distinct keys, mixed Int/Float as JSON decoding leaves them,
			// and a unique user so any reordering of a tie shows.
			key := query.IntValue(int64(rng.Intn(4)))
			if rng.Intn(2) == 0 {
				key = query.FloatValue(float64(rng.Intn(4)))
			}
			rows[i] = query.Row{query.IntValue(int64(i)), key, query.StringValue(fmt.Sprint("t", rng.Intn(3)))}
		}
		for _, ops := range [][]query.Op{
			nil,
			{topk("influence", 5, true)},
			{topk("influence", 5, false)},
			{topk("influence", 100, true)},
			{topk("influence", 100, false)},
			{topk("tag", 7, false)},
			{limit(3)},
			{limit(100)},
			{topk("influence", 8, true), limit(3)},
			{topk("influence", 8, false), limit(30)},
			{limit(9), topk("influence", 4, true)},
			{topk("tag", 20, true), topk("influence", 6, false)},
			{topk("influence", 2, true), filter, topk("tag", 6, false), limit(4)},
			{topk("influence", 2, true), filter},
		} {
			want := sortTruncate(ops, columns, append([]query.Row(nil), rows...))
			for _, cap := range []int{api.DefaultQueryRowLimit, 2} {
				got, truncated, err := reapplyTrailing(ops, columns, append([]query.Row(nil), rows...), cap)
				if err != nil {
					t.Fatalf("%d rows, ops %+v: %v", n, ops, err)
				}
				cut := want[:min(len(want), cap)]
				if truncated != (len(want) > cap) || len(got) != len(cut) {
					t.Fatalf("%d rows, ops %+v, limit %d: %d rows (truncated=%v), want %d of %d", n, ops, cap, len(got), truncated, len(cut), len(want))
				}
				for i := range got {
					if !reflect.DeepEqual(got[i], cut[i]) {
						t.Fatalf("%d rows, ops %+v, limit %d: row %d is %v, the sort/truncate has %v", n, ops, cap, i, got[i], cut[i])
					}
				}
			}
		}
	}
}

package query

import (
	"repro/sim"
)

// Snapshot scan sources. Each reads only the immutable sim.Snapshot it was
// given — never a live tracker — and overwrites one reused row buffer per
// Next call.

// seedsSchema: one row per seed of the snapshot's current solution.
//
//	rank      0-based position in the seed list
//	user      the seed's user ID
//	influence |I(user)| within the window (from Snapshot.SeedInfluence)
var seedsSchema = Schema{"rank", "user", "influence"}

type seedsScan struct {
	snap *sim.Snapshot
	i    int
	row  Row
}

// ScanSeeds returns the snapshot's seed set as a relation with columns
// (rank, user, influence).
func ScanSeeds(s *sim.Snapshot) Relation {
	return &seedsScan{snap: s, row: make(Row, len(seedsSchema))}
}

func (sc *seedsScan) Schema() Schema { return seedsSchema }

func (sc *seedsScan) Next() (Row, bool) {
	if sc.i >= len(sc.snap.Seeds) {
		return nil, false
	}
	infl := 0
	if sc.i < len(sc.snap.SeedInfluence) {
		infl = len(sc.snap.SeedInfluence[sc.i].Influenced)
	}
	sc.row[0] = IntValue(int64(sc.i))
	sc.row[1] = IntValue(int64(sc.snap.Seeds[sc.i]))
	sc.row[2] = IntValue(int64(infl))
	sc.i++
	return sc.row, true
}

// checkpointsSchema: one row per live checkpoint, ascending start order.
//
//	index  0-based position in the chain
//	start  the checkpoint's start action ID
//	value  the checkpoint oracle's current objective value
var checkpointsSchema = Schema{"index", "start", "value"}

type checkpointsScan struct {
	snap *sim.Snapshot
	i    int
	row  Row
}

// ScanCheckpoints returns the snapshot's live checkpoint chain as a
// relation with columns (index, start, value).
func ScanCheckpoints(s *sim.Snapshot) Relation {
	return &checkpointsScan{snap: s, row: make(Row, len(checkpointsSchema))}
}

func (sc *checkpointsScan) Schema() Schema { return checkpointsSchema }

func (sc *checkpointsScan) Next() (Row, bool) {
	if sc.i >= len(sc.snap.CheckpointStarts) {
		return nil, false
	}
	val := 0.0
	if sc.i < len(sc.snap.CheckpointValues) {
		val = sc.snap.CheckpointValues[sc.i]
	}
	sc.row[0] = IntValue(int64(sc.i))
	sc.row[1] = IntValue(int64(sc.snap.CheckpointStarts[sc.i]))
	sc.row[2] = FloatValue(val)
	sc.i++
	return sc.row, true
}

// influenceSchema: one row per (seed, influenced user) pair, flattening
// Snapshot.SeedInfluence in seed order.
//
//	seed  the influencing seed's user ID
//	user  one user the seed currently influences
var influenceSchema = Schema{"seed", "user"}

type influenceScan struct {
	snap *sim.Snapshot
	i, j int
	row  Row
}

// ScanInfluence returns the per-seed influence sets of the snapshot as a
// relation with columns (seed, user): the Set-Stream rows analytics join
// against seeds or aggregate with TopK.
func ScanInfluence(s *sim.Snapshot) Relation {
	return &influenceScan{snap: s, row: make(Row, len(influenceSchema))}
}

func (sc *influenceScan) Schema() Schema { return influenceSchema }

func (sc *influenceScan) Next() (Row, bool) {
	for sc.i < len(sc.snap.SeedInfluence) {
		si := sc.snap.SeedInfluence[sc.i]
		if sc.j < len(si.Influenced) {
			sc.row[0] = IntValue(int64(si.User))
			sc.row[1] = IntValue(int64(si.Influenced[sc.j]))
			sc.j++
			return sc.row, true
		}
		sc.i++
		sc.j = 0
	}
	return nil, false
}

// Window-compare sources: diff two snapshots of the same tracker (e.g. the
// serving layer's previous and current published snapshots, or two
// checkpoints' views). Both are bounded by K seeds / O(log N / β)
// checkpoints, so these sources precompute their handful of rows at
// construction; laziness buys nothing at that size.

// compareSeedsSchema: one row per user present in either snapshot's seeds.
//
//	user    the user ID
//	status  "kept" (in both), "added" (only new), "removed" (only old)
var compareSeedsSchema = Schema{"user", "status"}

// CompareSeeds diffs two snapshots' seed sets: rows for the new snapshot's
// seeds first (kept/added, in its seed order), then the old snapshot's
// dropped seeds (removed, in its order).
func CompareSeeds(old, cur *sim.Snapshot) Relation {
	inOld := make(map[sim.UserID]bool, len(old.Seeds))
	for _, u := range old.Seeds {
		inOld[u] = true
	}
	inCur := make(map[sim.UserID]bool, len(cur.Seeds))
	for _, u := range cur.Seeds {
		inCur[u] = true
	}
	rows := make([]Row, 0, len(cur.Seeds)+len(old.Seeds))
	for _, u := range cur.Seeds {
		status := "added"
		if inOld[u] {
			status = "kept"
		}
		rows = append(rows, Row{IntValue(int64(u)), StringValue(status)})
	}
	for _, u := range old.Seeds {
		if !inCur[u] {
			rows = append(rows, Row{IntValue(int64(u)), StringValue("removed")})
		}
	}
	return &sliceRelation{schema: compareSeedsSchema, rows: rows}
}

// compareCheckpointsSchema: one row per checkpoint start present in either
// snapshot, ascending start order.
//
//	user-visible columns:
//	start      the checkpoint's start action ID
//	status     "kept", "added" or "removed" (matched by start)
//	value_old  the old snapshot's value at that start (0 when absent)
//	value_new  the new snapshot's value at that start (0 when absent)
//	delta      value_new - value_old for kept checkpoints, 0 otherwise
var compareCheckpointsSchema = Schema{"start", "status", "value_old", "value_new", "delta"}

// CompareCheckpoints diffs two snapshots' checkpoint chains, matching
// checkpoints by start ID (both chains are ascending).
func CompareCheckpoints(old, cur *sim.Snapshot) Relation {
	var rows []Row
	i, j := 0, 0
	for i < len(old.CheckpointStarts) || j < len(cur.CheckpointStarts) {
		switch {
		case j >= len(cur.CheckpointStarts) ||
			(i < len(old.CheckpointStarts) && old.CheckpointStarts[i] < cur.CheckpointStarts[j]):
			rows = append(rows, Row{
				IntValue(int64(old.CheckpointStarts[i])), StringValue("removed"),
				FloatValue(old.CheckpointValues[i]), FloatValue(0), FloatValue(0),
			})
			i++
		case i >= len(old.CheckpointStarts) || cur.CheckpointStarts[j] < old.CheckpointStarts[i]:
			rows = append(rows, Row{
				IntValue(int64(cur.CheckpointStarts[j])), StringValue("added"),
				FloatValue(0), FloatValue(cur.CheckpointValues[j]), FloatValue(0),
			})
			j++
		default: // same start: kept
			rows = append(rows, Row{
				IntValue(int64(cur.CheckpointStarts[j])), StringValue("kept"),
				FloatValue(old.CheckpointValues[i]), FloatValue(cur.CheckpointValues[j]),
				FloatValue(cur.CheckpointValues[j] - old.CheckpointValues[i]),
			})
			i++
			j++
		}
	}
	return &sliceRelation{schema: compareCheckpointsSchema, rows: rows}
}

// sliceRelation serves precomputed rows (the compare sources and Rows).
type sliceRelation struct {
	schema Schema
	rows   []Row
	i      int
}

// Rows is the relation over rows already in hand — a router's merge of its
// shards' answers — under the given column names. It yields the rows
// themselves, in order.
func Rows(columns []string, rows []Row) Relation {
	return &sliceRelation{schema: Schema(columns), rows: rows}
}

func (s *sliceRelation) Schema() Schema { return s.schema }

func (s *sliceRelation) Next() (Row, bool) {
	if s.i >= len(s.rows) {
		return nil, false
	}
	r := s.rows[s.i]
	s.i++
	return r, true
}

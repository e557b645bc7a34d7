package core

import (
	"repro/internal/stream"
)

// batchGain records which performers a contributor's influence set may have
// gained during the current batch: latest is the first one seen, multi is
// set when a second distinct performer appears (disabling the O(1) fast
// path for that contributor's elements). prev is the minimum stream.Delta.Prev
// over the contributor's touches in the batch: the checkpoints that start
// after it are the ones whose set the batch changed. That is exact for a
// checkpoint opened mid-batch too — a touch that lands at or after its start
// changes its set, and the earliest such touch has prev < start, its
// previous entry being older than the checkpoint; with no such touch the
// prefix is empty and feedContributor stops there.
type batchGain struct {
	latest stream.UserID
	multi  bool
	prev   stream.ActionID
}

// ProcessBatch ingests a batch of actions at once, amortizing the per-action
// maintenance of Process across the batch: the stream index is updated in
// one IngestBatch call, each checkpoint oracle then receives ONE element per
// distinct contributor of the batch whose set there the batch changed
// (instead of one per contributing action), and window expiry, SIC pruning
// and horizon advance run once at the batch boundary.
//
// Semantics: checkpoint creation keeps the exact per-action cadence of
// Process, and every oracle element carries the contributor's influence set
// evaluated after the whole batch — a coarser-grained notification of the
// same monotone set growth the per-action path reports. Each checkpoint
// still observes its full suffix (a contributor's element covers all of its
// batch contributions), so the oracles' approximation guarantees are
// unchanged; only the intra-batch admission interleaving may differ from
// per-action processing. Queries are exact at batch boundaries, matching
// the L-action slide granularity the paper already guarantees results at.
// A batch of one action takes the exact legacy path.
func (f *Framework) ProcessBatch(actions []stream.Action) error {
	if len(actions) == 0 {
		return nil
	}
	if len(actions) == 1 {
		return f.Process(actions[0])
	}
	deltas, err := f.st.IngestBatch(actions)
	if err != nil {
		return err
	}

	// Checkpoint creation, per action (Algorithm 1 line 2; §5.3 for L > 1).
	// A checkpoint opened mid-batch starts at its opening action's ID, so
	// the prefix query below feeds it exactly its own suffix.
	for _, d := range deltas {
		f.admit(d.Action.ID)
		// Sample the live-checkpoint count per action (the cpSamples
		// definition) here, where creations are exactly timed; expiry and
		// pruning land at batch granularity, so AvgCheckpoints can lag the
		// serial run by up to one batch's worth of deletions.
		f.cpSamples += int64(len(f.cps))
	}

	// Distinct contributors of the batch, in first-touch order so batched
	// runs are deterministic. Alongside each contributor, track the
	// distinct performers its influence set may have gained this batch:
	// when there is exactly one, the oracles' O(1) Latest fast path stays
	// valid (Latest only has to cover every member possibly added since the
	// contributor's previous element — Add is idempotent and the gain-bound
	// update is an upper bound, so an already-known performer is harmless).
	if f.batchSeen == nil {
		f.batchSeen = map[stream.UserID]int{}
	}
	clear(f.batchSeen)
	f.batchContrib = f.batchContrib[:0]
	f.batchGains = f.batchGains[:0]
	for _, d := range deltas {
		p := d.Action.User
		for j, u := range d.Contributors {
			if i, ok := f.batchSeen[u]; ok {
				g := &f.batchGains[i]
				if g.latest != p {
					g.multi = true
				}
				g.prev = min(g.prev, d.Prev[j])
				continue
			}
			f.batchSeen[u] = len(f.batchContrib)
			f.batchContrib = append(f.batchContrib, u)
			f.batchGains = append(f.batchGains, batchGain{latest: p, prev: d.Prev[j]})
		}
	}

	// Feed each contributor's post-batch influence set to the checkpoints
	// where the batch changed it, through the Set-Stream Mapping
	// (feedContributor: one recency-sorted materialization per contributor
	// serves every checkpoint as a prefix).
	// A contributor that gained members from several distinct performers is
	// fed without Latest metadata and seed updates fall back to a full
	// merge.
	for i, u := range f.batchContrib {
		g := f.batchGains[i]
		f.feedContributor(u, g.latest, !g.multi, g.prev)
	}

	// Batch-boundary maintenance: expiry, SIC pruning and horizon advance
	// run once, against the window of the batch's last action.
	ws := actions[len(actions)-1].ID - stream.ActionID(f.cfg.N) + 1
	f.expire(ws)
	if f.cfg.Sparse {
		f.prune()
	}
	if len(f.cps) > 0 {
		h := f.cps[0].start
		if ws < h {
			h = ws
		}
		f.st.Advance(h)
	}
	return nil
}

// Package router is the scatter-gather front of a sharded tracker fleet:
// the engine behind cmd/simrouter. It partitions the NDJSON action stream
// across N simserve shards by consistent hash of the acting user, fans
// ingest out over the typed api.Client (riding its RetryPolicy), and merges
// reads back into the single-server wire shapes — additive merges for
// value/stats/checkpoints (exact: shard influence universes are disjoint
// under user partitioning), a merge of shard-ranked candidates for /seeds
// (the GreeDi-style two-round scheme: each shard runs the exact greedy pass
// over its own pool, the router merges the pick sequences), and per-shard
// plan pushdown with router-side topk/limit re-application for /query.
//
// # Partitioning
//
// Every action is routed by its acting user: numeric user IDs hash
// directly, name-mode users hash their raw external name BEFORE any
// interning (per-shard dense IDs are intern order and carry no cross-shard
// meaning). All of a user's actions therefore land on one shard, so that
// shard owns the user's influence set exactly. A reply whose parent action
// lives on another shard arrives on a shard that never saw the parent; the
// shard treats it as a root (see internal/stream), which is precisely the
// paper's semantics restricted to the shard's sub-stream. The influenced
// users a shard reports are actors of its own sub-stream, so the shard
// universes are DISJOINT — additive read merges are exact sums, never
// double counts, and merging the shards' greedy rankings by marginal gain
// yields exactly the greedy pass over the union of their candidate pools.
//
// # Partial results
//
// A shard that fails at the transport level is marked down, skipped by
// reads, and re-probed in the background. Merged reads computed without
// every shard set the X-Partial: true response header and the DTO's
// Partial field; only when no shard at all answers does a read fail (503).
// Ingest is stricter: a batch that needs a down shard is refused (503,
// retryable) rather than silently half-applied.
package router

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"

	"repro/sim"
)

// defaultVnodes is the number of virtual nodes per shard on the ring.
// 128 points per shard keeps the keyspace imbalance within a few percent
// while the ring stays small enough to rebuild instantly.
const defaultVnodes = 128

// Ring is a consistent-hash ring over shard indices [0, N). Keys are
// placed by 64-bit FNV-1a and assigned to the next virtual node clockwise.
// Consistent hashing (rather than mod-N) keeps the map stable under future
// shard-set changes: adding a shard moves only ~1/N of the keyspace.
type Ring struct {
	points []ringPoint // sorted by hash
	shards int
}

type ringPoint struct {
	hash  uint64
	shard int
}

// NewRing builds a ring over n shards with the default virtual-node count.
func NewRing(n int) *Ring {
	if n < 1 {
		panic("router: ring needs at least one shard")
	}
	r := &Ring{shards: n, points: make([]ringPoint, 0, n*defaultVnodes)}
	var key [16]byte
	for s := 0; s < n; s++ {
		binary.LittleEndian.PutUint64(key[:8], uint64(s))
		for v := 0; v < defaultVnodes; v++ {
			binary.LittleEndian.PutUint64(key[8:], uint64(v))
			r.points = append(r.points, ringPoint{hash: hashBytes(key[:]), shard: s})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Colliding virtual nodes order by shard so the ring is
		// deterministic regardless of construction order.
		return r.points[i].shard < r.points[j].shard
	})
	return r
}

// Shards returns the number of shards the ring spans.
func (r *Ring) Shards() int { return r.shards }

// locate maps a key hash to its owning shard: the first virtual node at or
// clockwise after the hash, wrapping at the top of the keyspace.
func (r *Ring) locate(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].shard
}

// ShardForID returns the owning shard of a numeric user ID. IDs hash their
// 8-byte little-endian encoding, NOT their decimal spelling, so the map is
// independent of formatting.
func (r *Ring) ShardForID(u sim.UserID) int {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(u))
	return r.locate(hashBytes(b[:]))
}

// ShardForName returns the owning shard of a name-mode user. Names hash
// their raw bytes before any interning: per-shard dense IDs are
// first-appearance order on that shard and mean nothing across shards, so
// the external name is the only stable routing key in name mode.
func (r *Ring) ShardForName(name string) int {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	return r.locate(mix64(h.Sum64()))
}

// hashBytes is 64-bit FNV-1a over b, finalized with mix64. Ring keys are
// highly structured (sequential integers with trailing zero bytes), and
// raw FNV maps those onto a lattice that clusters badly on the ring —
// measured skew was >3× between shards before finalization.
func hashBytes(b []byte) uint64 {
	h := fnv.New64a()
	_, _ = h.Write(b)
	return mix64(h.Sum64())
}

// mix64 is the MurmurHash3 64-bit finalizer: a full-avalanche bijection,
// so every input bit flips each output bit with probability ≈1/2.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Describe renders the ring's shard count for logs.
func (r *Ring) Describe() string {
	return fmt.Sprintf("ring(%d shards, %d vnodes)", r.shards, len(r.points))
}

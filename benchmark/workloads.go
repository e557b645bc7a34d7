package main

import (
	"fmt"

	"repro/internal/gen"
	"repro/internal/stream"
)

// workload is one traffic mix: the tracker every server runs, the stream
// the client generates, and how the client drives it.
type workload struct {
	name string
	// gated workloads are the ones BENCHMARK.json lists and the driver
	// runs; the others run by hand, in the whole-suite pass and in the
	// smoke test only (see README.md, "Why three of the four are gated").
	gated bool

	// Tracker (identical on every shard): SIC + sieve, sim batch 1.
	k      int
	window int // N per tracker
	slide  int // L
	beta   float64
	users  int // |U| of the generated stream, and the servers' sizing hint

	// Stream shape.
	preset func(users, actions, window int, seed int64) gen.Config

	// Serving topology and options.
	shards           int   // 0 = one simserve; n > 0 = simrouter + n shards
	names            bool  // name-mode tracker: users travel as strings
	memoryBudget     int64 // simserve -memory-budget; 0 = never spill
	snapshotWALBytes int64 // sized so several snapshots land in the measured phase

	// Client behaviour.
	batch     int     // actions per POST /actions
	rate      float64 // POSTs per second; 0 = closed loop
	sizedRate float64 // closed loop only: actions per second of --seconds the measured phase is sized by
	tail      int     // actions ingested after the pre-recovery snapshot: the WAL tail every recovery cycle replays
	preloadX  float64 // preload length in windows (per shard)
}

// readRate is how often the reader issues each of /seeds and /query.
const readRate = 20.0

// freshSamples is how many times per measured phase the ingester follows an
// ack with a /seeds read: the read-after-ack check, and the instants at which
// the referee judges the served seeds.
const freshSamples = 12

// preloadBatch is the POST size of the (untimed-per-request) preload.
const preloadBatch = 2000

// recoveryCycles is how many kill -9/restart cycles a run times.
const recoveryCycles = 9

// evalWindow is how much of the global stream's tail the referee indexes:
// one tracker window per shard.
func (w workload) evalWindow() int { return w.window * max(w.shards, 1) }

// preload is the number of actions ingested before timing starts.
func (w workload) preload() int {
	return int(w.preloadX * float64(w.window) * float64(max(w.shards, 1)))
}

// measuredBatches is the fixed amount of work the measured phase carries:
// --seconds of the offered rate on an open loop, --seconds of sizedRate on a
// closed one. The count depends on the command line only, never on how fast
// the machine happens to be, so the same seed and --seconds do the same work
// on every run and the servers' exact counters repeat; a closed-loop phase
// then lasts as long as the machine needs (sizedRate is this box's usual
// speed, so about --seconds).
func (w workload) measuredBatches(seconds float64) int {
	if w.rate > 0 {
		return max(int(seconds*w.rate), 1)
	}
	return max(int(seconds*w.sizedRate)/w.batch, 1)
}

// generate materializes the workload's action stream from the seed: the
// preload, the measured phase and the recovery tail, nothing spare. The
// servers only ever see these actions, as NDJSON.
func (w workload) generate(seed int64, seconds float64) []stream.Action {
	return w.generateN(seed, w.preload()+w.measuredBatches(seconds)*w.batch+w.tail)
}

// generateN is generate with an explicit length. A shorter stream is a
// prefix of a longer one with the same seed: the generator draws action by
// action.
func (w workload) generateN(seed int64, n int) []stream.Action {
	return gen.Stream(w.preset(w.users, n, w.window*max(w.shards, 1), seed))
}

// scaled shrinks the workload by div (the smoke scale): a smaller window,
// user universe, tail and snapshot interval; rates and batch sizes stay, so
// every code path still runs.
func (w workload) scaled(div int) workload {
	if div <= 1 {
		return w
	}
	w.window = max(w.window/div, 2*w.slide)
	w.users = max(w.users/div, 64)
	w.tail = max(w.tail/div, w.batch)
	// The recovery tail must fit in the WAL without triggering a snapshot.
	w.snapshotWALBytes = max(w.snapshotWALBytes/int64(div), 16*int64(w.tail))
	if w.memoryBudget > 0 {
		w.memoryBudget = max(w.memoryBudget/int64(div), 2048)
	}
	return w
}

// userName is the external name of user u on the name-mode workload.
func userName(u stream.UserID) string { return fmt.Sprintf("u%d", u) }

// workloads is the suite, in run order. The numbers are sized for a 2-vCPU
// box and a 30 s measured phase; see README.md for why each exists.
var workloads = []workload{
	{
		name: "bulk", gated: true,
		k: 50, window: 8000, slide: 50, beta: 0.1, users: 8000,
		preset: gen.TwitterLike, snapshotWALBytes: 128 << 10,
		batch: 2000, sizedRate: 8000, tail: 4000, preloadX: 1.25,
	},
	{
		name: "trickle", gated: true,
		k: 50, window: 8000, slide: 50, beta: 0.1, users: 8000,
		preset: gen.TwitterLike, names: true, snapshotWALBytes: 32 << 10,
		batch: 4, rate: 100, tail: 2000, preloadX: 1.25,
	},
	{
		name: "cluster", gated: true,
		k: 50, window: 8000, slide: 50, beta: 0.1, users: 16000,
		preset: gen.TwitterLike, shards: 2, snapshotWALBytes: 32 << 10,
		batch: 250, rate: 20, tail: 8000, preloadX: 1.25,
	},
	{
		name: "spill",
		k:    50, window: 5000, slide: 50, beta: 0.1, users: 5000,
		preset: gen.RedditLike, memoryBudget: 26 << 10, snapshotWALBytes: 16 << 10,
		batch: 250, sizedRate: 5000, tail: 1000, preloadX: 1.25,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

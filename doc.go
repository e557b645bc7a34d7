// Package repro is a from-scratch Go reproduction of "Real-Time Influence
// Maximization on Dynamic Social Streams" (Wang, Fan, Li, Tan — VLDB 2017).
//
// The public API lives in package repro/sim; the paper's IC/SIC frameworks,
// the streaming submodular oracles, the IMM/UBI/Greedy baselines, the
// serving layer and the experiment harness live under internal/. See
// README.md for a tour and the quickstart, and ARCHITECTURE.md for the
// layer map (stream → oracle → core → sim → server) and the paper-section
// → package correspondence. The benchmarks in bench_test.go regenerate
// every table and figure of the paper's evaluation at laptop scale.
//
// Beyond the paper, the ingestion engine has a zero-allocation element hot
// path — oracle elements are plain values over shared influence-set views —
// and the sieve-style oracles keep their candidate instances' state
// user-major: one bit row per user answers "seed of which instances" and
// "covered by which instances" for all O(log k / β) instances in one probe,
// and a per-instance gain bound that grows only by what an element can have
// changed lets most re-offered elements be rejected without walking their
// influence set. There is one ingest path, stream → core → sim, written in
// terms of a batch: sim.Config's BatchSize says how many actions of one
// ProcessAll call share a batch, so stream-index and checkpoint maintenance
// amortize across it (default 1 = per-action, which is also what Process is
// at any BatchSize). The
// README's "Performance architecture" section documents the hot-path
// performance and benchmark/ measures it end to end. See the sim package
// documentation for details.
//
// The repository also runs as a service: cmd/simserve (internal/server)
// keeps named trackers alive behind an HTTP API with NDJSON streaming
// ingest, one writer per tracker at a time (whichever caller holds its
// gate), lock-free snapshot reads (sim.Snapshot), a text /metrics endpoint and drain-on-SIGTERM
// shutdown. cmd/simgen generates workloads as NDJSON, the one stream format
// (internal/dataio), and cmd/simctl ingest feeds them to a server.
//
// Tracker state is durable end to end: every layer that owns state
// carries a versioned Save/Restore contract (stream index, oracle
// instances via oracle.Persistent, the IC/SIC checkpoint chain), composed
// by sim.Tracker.SaveTo / sim.Load into the SIM2 snapshot container
// (internal/dataio: CRC-protected, forward-compatible sections). The
// serving layer pairs that with a write-ahead log: simserve -data-dir
// appends every applied batch before acknowledging it and
// snapshots+truncates periodically, so a kill -9 mid-ingest recovers to a
// state bit-identical to an uninterrupted run (ARCHITECTURE.md
// "Persistence").
package repro

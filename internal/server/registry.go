package server

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/api"
	"repro/intern"
	"repro/internal/fault"
	"repro/sim"
)

// ErrClosed is returned by Submit and Query once a tracker (or its whole
// registry) has started draining.
var ErrClosed = errors.New("server: tracker is draining")

// ErrOverloaded is returned by Submit and Query when every waiting slot
// stays taken past the enqueue deadline: the tracker is shedding load (HTTP
// 429) instead of wedging its callers behind a slow writer. The work did NOT
// run; retry after backing off.
var ErrOverloaded = errors.New("server: ingest queue overloaded")

// ErrReadOnly is returned by Submit while a durable tracker is in
// degraded-readonly mode: its WAL is poisoned, so ingest would lose the
// durability guarantee. Reads and queries keep answering
// from the published snapshot; ingest resumes with the first batch that
// finds the disk healed, once the snapshot backoff allows an attempt: that
// batch re-arms the log and is applied (HTTP 503 + Retry-After meanwhile).
var ErrReadOnly = errors.New("server: tracker is read-only (degraded durability)")

// queueLen is a tracker's ingest queue capacity: how many callers (batches
// and gate-side reads) may wait for its gate at once, the bound behind the
// Submit backpressure; and enqueueDeadline bounds how long Submit/Query wait
// for a slot in a full queue before shedding with ErrOverloaded (admission
// control: a wedged writer must not wedge HTTP handlers). Registry.Add reads
// both; they are variables only so tests can shrink them (export_test.go).
var (
	queueLen        = 256
	enqueueDeadline = 2 * time.Second
)

// TrackerState is the serving state of one tracker, reported by
// /v1/healthz and /v1/trackers/{name}/metrics.
type TrackerState int32

const (
	// StateOK: fully serving; ingest and reads both available.
	StateOK TrackerState = iota
	// StateDegradedReadOnly: the durable log is poisoned; reads and queries
	// keep answering, ingest sheds with 503 until a batch finds the disk
	// healed and re-arms the log.
	StateDegradedReadOnly
)

func (s TrackerState) String() string {
	if s == StateDegradedReadOnly {
		return "degraded-readonly"
	}
	return "ok"
}

// Tracked is one served tracker: a sim.Tracker owned by whichever caller
// holds its gate, with a bounded queue of callers waiting for it
// (backpressure: Submit blocks while the queue is full) and an atomically
// published read snapshot refreshed after every applied batch.
//
// The split mirrors the serve/analyze separation argued for by Polynesia:
// the write path is strictly serial — sim.Tracker is not safe for
// concurrent use, so only the gate holder touches it — while reads consume
// the immutable published Snapshot (no coordination at all). The exception
// is state the snapshot does not carry — the influence set of a user outside
// the candidate pool — which is read by a closure under the gate (Query).
type Tracked struct {
	name string
	spec api.Spec
	tr   *sim.Tracker
	// gate (capacity 1) is held by the one goroutine that owns tr; slots
	// (capacity queueLen) by the callers waiting for it, each giving its slot
	// back once it holds the gate. Waiters take the gate in arrival order.
	gate  chan struct{}
	slots chan struct{}
	quit  chan struct{} // closed by Close: unblocks callers waiting for a slot

	// names interns external user names to dense IDs on name-mode trackers
	// (Spec.Names); nil otherwise. Handlers intern concurrently (the table
	// locks internally); ingest persists new names in the WAL record of the
	// first batch that may reference them.
	names *intern.Table

	// dur, when non-nil, makes the tracker durable: ingest appends every
	// batch to a write-ahead log before applying it and periodically
	// snapshots + truncates (see durable.go). Owned by the gate holder after
	// construction. recovered describes what boot restored.
	dur       *durability
	recovered RecoveryInfo

	// state is the serving state (ok / degraded-readonly), stored by the
	// gate holder after each checkpoint, read by handlers.
	state atomic.Int32
	// coldErr is the message of the stream's ColdErr — its first failed
	// cold read, else its latest spill if that failed — published by the
	// gate holder in noteColdErr; nil while none.
	coldErr atomic.Pointer[string]

	// enqueueDeadline bounds the wait for a slot in a full queue before
	// shedding (ErrOverloaded).
	enqueueDeadline time.Duration
	// shed counts callers rejected by the enqueue deadline; qHighWater is
	// the deepest the queue has been when a caller took a slot.
	shed       atomic.Int64
	qHighWater atomic.Int64

	mu         sync.Mutex // guards closed
	closed     bool
	submitters sync.WaitGroup // callers in flight past the closed check
	closeOnce  sync.Once
	closeErr   error

	snap atomic.Pointer[sim.Snapshot]
	// prev is the last published snapshot whose Processed differed from the
	// current one — the "previous" side of the query layer's window-compare
	// sources. Nil until the first ingest progress after boot.
	prev atomic.Pointer[sim.Snapshot]
}

// newTracked builds the tracker for spec; it starts no goroutine, durable
// or not. A non-empty dataDir makes the tracker durable: its state is
// recovered from dataDir (snapshot + WAL replay) and every subsequent batch
// is logged before it is applied. Its cold tier lives in dataDir/spill (see
// sim.Config.SpillDir) — always, even without a budget: it is what re-adopts
// the cold segments a snapshot taken under one references, instead of
// replaying them (the budget is a runtime knob). fs is the environment seam
// (nil = the real filesystem).
func newTracked(name string, spec api.Spec, dataDir string, fs fault.FS) (*Tracked, error) {
	var (
		tr    *sim.Tracker
		dur   *durability
		info  RecoveryInfo
		err   error
		names *intern.Table
	)
	if spec.Names {
		names = intern.New(spec.ExpectedUsers)
	}
	cfg := spec.Config()
	cfg.MemoryBudgetBytes = spec.MemoryBudgetBytes
	if dataDir != "" {
		cfg.SpillDir = filepath.Join(dataDir, "spill")
		if fs != nil {
			cfg.SpillFS = fs
		}
		tr, dur, info, err = recoverTracker(fs, dataDir, cfg, spec.SnapshotWALBytes, names)
	} else {
		tr, err = sim.New(cfg)
	}
	if err != nil {
		return nil, err
	}
	t := &Tracked{
		name:            name,
		spec:            spec,
		tr:              tr,
		gate:            make(chan struct{}, 1),
		slots:           make(chan struct{}, queueLen),
		quit:            make(chan struct{}),
		names:           names,
		dur:             dur,
		recovered:       info,
		enqueueDeadline: enqueueDeadline,
	}
	t.publish() // queries before the first ingest see the recovered snapshot
	return t, nil
}

// Recovery reports what boot restored for a durable tracker; ok is false
// for trackers without durability.
func (t *Tracked) Recovery() (info RecoveryInfo, ok bool) {
	return t.recovered, t.dur != nil
}

// DurabilityError returns the most recent snapshot failure message of a
// durable tracker, or "" when it is healthy (or memory-only). A non-empty
// value means the WAL is growing unbounded and recovery replays lengthen —
// degraded durability, not data loss — and is surfaced by GET /v1/healthz.
func (t *Tracked) DurabilityError() string {
	if t.dur == nil {
		return ""
	}
	return t.dur.snapshotErr()
}

// degradation returns what GET /v1/healthz lists for the tracker under
// "degraded": its latest snapshot failure, else its cold-tier failure
// (noteColdErr), else "".
func (t *Tracked) degradation() string {
	if msg := t.DurabilityError(); msg != "" {
		return msg
	}
	if msg := t.coldErr.Load(); msg != nil {
		return *msg
	}
	return ""
}

// State returns the tracker's serving state: StateOK, or
// StateDegradedReadOnly for a durable tracker whose log is poisoned. While
// degraded, snapshot reads and queries keep answering; only ingest is
// refused (503 + Retry-After) until a batch re-arms the log. It is what the
// last Submit (or Close) left: no goroutine moves it in between.
func (t *Tracked) State() TrackerState { return TrackerState(t.state.Load()) }

// Metrics returns what GET /v1/trackers/{name}/metrics answers and the
// tracker's /metrics series report: the serving state, the robustness
// counters (failed snapshot attempts, poisoned-log re-arms, requests shed by
// the enqueue deadline, the ingest queue's high-water depth), the queue, the
// boot recovery of a durable tracker and the published snapshot's
// sim.Counters. Safe from any goroutine.
func (t *Tracked) Metrics() api.TrackerMetricsResponse {
	depth, capacity := t.QueueDepth()
	m := api.TrackerMetricsResponse{
		State:               t.State().String(),
		ShedRequests:        t.shed.Load(),
		QueueDepthHighWater: t.qHighWater.Load(),
		QueueDepth:          depth,
		QueueCapacity:       capacity,
		DurabilityError:     t.DurabilityError(),
		Counters:            t.Snapshot().Counters,
	}
	if t.dur != nil {
		m.SnapshotRetries = t.dur.snapRetries.Load()
		m.WALRearms = t.dur.rearms.Load()
		m.RecoveredSnapshot = t.recovered.SnapshotLoaded
		m.RecoveredSnapshotProcessed = t.recovered.SnapshotProcessed
		m.RecoveredWALBatches = t.recovered.WALBatches
		m.RecoveredWALActions = t.recovered.WALActions
	}
	return m
}

// Name returns the tracker's registry name.
func (t *Tracked) Name() string { return t.name }

// Spec returns the spec the tracker was built from.
func (t *Tracked) Spec() api.Spec { return t.spec }

// Names returns the tracker's intern table on name-mode trackers
// (Spec.Names), nil otherwise.
func (t *Tracked) Names() *intern.Table { return t.names }

// QueueDepth returns the number of callers waiting for the tracker's gate
// and the queue's capacity.
func (t *Tracked) QueueDepth() (depth, capacity int) { return len(t.slots), cap(t.slots) }

// Snapshot returns the most recently published read snapshot. The snapshot
// is immutable and shared; callers must not modify its slices.
func (t *Tracked) Snapshot() *sim.Snapshot { return t.snap.Load() }

// PrevSnapshot returns the snapshot published before the last ingest
// progress (the baseline of the query layer's window-compare sources), or
// nil when nothing has been ingested since boot.
func (t *Tracked) PrevSnapshot() *sim.Snapshot { return t.prev.Load() }

// ingest applies one batch under the gate. Durable trackers log the batch
// (fsync included) before applying it: once the caller sees success, the
// actions are on disk. A WAL failure rejects the batch unapplied — the
// in-memory state never runs ahead of the log. On name-mode trackers the
// record also carries the names not yet on disk, so every ID a WAL batch
// references is resolvable on recovery.
func (t *Tracked) ingest(batch []sim.Action) error {
	var err error
	if t.dur != nil {
		if t.dur.poisoned() {
			// Only a batch retries a poisoned log: re-arm it first, if the
			// backoff allows, so a healed disk takes this very batch.
			t.checkpoint(false)
		}
		if t.dur.poisoned() {
			// Still read-only: accepting the batch would acknowledge an
			// action the poisoned log cannot make durable.
			err = ErrReadOnly
		} else {
			err = t.dur.log(batch)
		}
	}
	if err == nil {
		// One submitted batch — one WAL record — is one ProcessAll call,
		// here and on replay (recoverTracker): the call holds nothing over,
		// so both cut the stream into the same ingestion batches.
		err = t.tr.ProcessAll(batch)
	}
	t.publish()
	if t.dur != nil {
		// A log this batch poisoned is retried at once unless an earlier
		// failure's backoff is still running, so a fault that has already
		// passed clears in this call.
		t.checkpoint(false)
	}
	return err
}

// checkpoint runs durability.checkpoint and, when that published a snapshot,
// collects the cold segments nothing references any more: the fresh
// snapshot's segment manifest matches the in-memory extents exactly, so they
// are unreachable from any recovery. A failed collection is benign — the
// files are retried after the next snapshot — and goes unreported: a stray
// file costs disk, never correctness. Its outcome sets the serving state:
// degraded-readonly while the log is still poisoned, ok once it is not.
func (t *Tracked) checkpoint(force bool) {
	if t.dur.checkpoint(t.tr, force) {
		_, _ = t.tr.GC()
	}
	state := StateOK
	if t.dur.poisoned() {
		state = StateDegradedReadOnly
	}
	t.state.Store(int32(state))
}

// publish refreshes the shared read snapshot, rotating the old one into
// prev when ingest progressed — window-compare queries diff the two. Called
// only by the goroutine that owns t.tr (the gate holder, or newTracked
// before anyone else can reach the tracker).
func (t *Tracked) publish() {
	s := t.tr.Snapshot()
	if old := t.snap.Load(); old != nil && old.Processed != s.Processed {
		t.prev.Store(old)
	}
	t.snap.Store(&s)
	t.noteColdErr()
}

// noteColdErr publishes the stream's ColdErr for /v1/healthz: a failed cold
// read until the tracker restarts, a failed spill until a spill succeeds.
// Called by the goroutine that owns t.tr after anything that may touch the
// cold tier: ingest and its publish, or a query closure.
func (t *Tracked) noteColdErr() {
	var msg *string
	if err := t.tr.Internal().Stream().ColdErr(); err != nil {
		m := "cold tier: " + err.Error()
		msg = &m
	}
	t.coldErr.Store(msg)
}

// run takes a slot in the tracker's queue, then its gate, and runs fn as
// the tracker's one writer. A full queue applies backpressure only up to the
// tracker's enqueue deadline; past it the caller is shed with ErrOverloaded
// (admission control: a wedged writer must not wedge HTTP handlers too). It
// fails with ErrClosed once draining has begun and with ctx.Err() if the
// caller's context ends before it holds the gate; in every failure fn never
// runs. A caller that holds a slot when Close begins still runs.
func (t *Tracked) run(ctx context.Context, fn func()) error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return ErrClosed
	}
	t.submitters.Add(1)
	t.mu.Unlock()
	defer t.submitters.Done()
	if err := t.takeSlot(ctx); err != nil {
		return err
	}
	select {
	case t.gate <- struct{}{}:
	case <-ctx.Done():
		<-t.slots
		return ctx.Err()
	}
	<-t.slots
	defer func() { <-t.gate }()
	if err := ctx.Err(); err != nil {
		return err // ended while the gate was being taken
	}
	fn()
	return nil
}

// takeSlot waits for room in the queue, up to the enqueue deadline, and
// records the depth it found in the high-water gauge.
func (t *Tracked) takeSlot(ctx context.Context) error {
	select {
	case t.slots <- struct{}{}:
	default:
		timer := time.NewTimer(t.enqueueDeadline)
		defer timer.Stop()
		select {
		case t.slots <- struct{}{}:
		case <-timer.C:
			t.shed.Add(1)
			return ErrOverloaded
		case <-t.quit:
			return ErrClosed
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	depth := int64(len(t.slots))
	for {
		hw := t.qHighWater.Load()
		if depth <= hw || t.qHighWater.CompareAndSwap(hw, depth) {
			return nil
		}
	}
}

// Submit ingests one batch of actions as the tracker's one writer and
// returns its lifetime accepted-action count as of this batch (not a later
// one's). Batches are applied in the order their callers reached the gate;
// an error (e.g. a non-monotonic ID) aborts the batch at the offending
// action.
func (t *Tracked) Submit(ctx context.Context, batch []sim.Action) (processed int64, err error) {
	if rerr := t.run(ctx, func() {
		err = t.ingest(batch)
		processed = t.snap.Load().Processed
	}); rerr != nil {
		return 0, rerr
	}
	return processed, err
}

// Query runs fn on the tracker under its gate, after every caller that
// reached the gate before it. fn may call any of the Tracker's read methods
// but must copy out what it needs; it must not retain the *sim.Tracker, and
// it must not ingest — nothing is published after it.
func (t *Tracked) Query(ctx context.Context, fn func(*sim.Tracker)) error {
	return t.run(ctx, func() {
		// Nothing to publish afterwards: reads leave the tracker's answer as
		// it was. A read may have failed on the cold tier, though.
		fn(t.tr)
		t.noteColdErr()
	})
}

// Close drains and stops the tracker: new submissions fail with ErrClosed,
// every caller already holding a slot is applied, and a durable tracker
// takes its final snapshot so the next boot skips WAL replay. A final
// snapshot that fails is an error — the next boot replays the whole WAL —
// joined with the tracker's own. Safe to call concurrently and more than
// once: every caller returns only after the full shutdown sequence has
// finished, and all see the same error.
func (t *Tracked) Close() error {
	t.closeOnce.Do(func() {
		t.mu.Lock()
		t.closed = true
		t.mu.Unlock()
		close(t.quit)       // refuse callers still waiting for a slot
		t.submitters.Wait() // every caller holding a slot has run
		// Nobody else can reach the gate now, so t.tr is safe to serialize.
		var snapErr error
		if t.dur != nil {
			t.checkpoint(true)
			if msg := t.dur.snapshotErr(); msg != "" {
				snapErr = fmt.Errorf("server: tracker %q: final snapshot: %s", t.name, msg)
			}
			t.dur.close()
		}
		t.closeErr = errors.Join(snapErr, t.tr.Close())
	})
	return t.closeErr
}

// Registry is the set of named trackers a server instance owns.
type Registry struct {
	mu       sync.RWMutex
	trackers map[string]*Tracked
	dataDir  string
	fs       fault.FS
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{trackers: make(map[string]*Tracked)}
}

// SetFS routes all durable-path filesystem access of trackers added
// afterwards through fs — the fault-injection seam. Call before Add; nil
// (the default) means the real filesystem.
func (r *Registry) SetFS(fs fault.FS) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.fs = fs
}

// SetDataDir enables durability for trackers added afterwards: each gets
// <dir>/<name>/ holding its snapshot and write-ahead log (see durable.go),
// is recovered from it on Add and persists every applied batch. Call before
// Add; an empty dir (the default) keeps trackers memory-only.
func (r *Registry) SetDataDir(dir string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.dataDir = dir
}

// DataDir returns the durability root, or "" when trackers are memory-only.
func (r *Registry) DataDir() string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.dataDir
}

// Add builds the tracker described by spec and registers it under name. On
// a durable registry (SetDataDir) the tracker first recovers its state from
// disk. A spec that cannot be served as configured is an error, whatever is
// wrong with it.
func (r *Registry) Add(name string, spec api.Spec) (*Tracked, error) {
	if name == "" {
		return nil, errors.New("server: tracker name must not be empty")
	}
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("server: tracker %q: %w", name, err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.trackers[name]; ok {
		return nil, fmt.Errorf("server: tracker %q already exists", name)
	}
	dir := ""
	switch {
	case r.dataDir != "":
		// The name becomes a directory component; keep it one.
		if strings.ContainsAny(name, `/\`) || name == "." || name == ".." {
			return nil, fmt.Errorf("server: tracker name %q is not usable as a data directory", name)
		}
		dir = filepath.Join(r.dataDir, name)
	case spec.MemoryBudgetBytes > 0:
		return nil, fmt.Errorf(
			"server: tracker %q: memory_budget_bytes=%d needs somewhere to spill: pass -data-dir (segments go under <data-dir>/<name>/spill)",
			name, spec.MemoryBudgetBytes)
	}
	t, err := newTracked(name, spec, dir, r.fs)
	if err != nil {
		return nil, fmt.Errorf("server: tracker %q: %w", name, err)
	}
	r.trackers[name] = t
	return t, nil
}

// Get returns the named tracker.
func (r *Registry) Get(name string) (*Tracked, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	t, ok := r.trackers[name]
	return t, ok
}

// Names returns the registered tracker names in sorted order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.names()
}

// Close drains and stops every tracker, returning the first error.
func (r *Registry) Close() error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var first error
	for _, n := range r.names() {
		if err := r.trackers[n].Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// names returns sorted names; callers hold r.mu.
func (r *Registry) names() []string {
	names := make([]string, 0, len(r.trackers))
	for n := range r.trackers {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

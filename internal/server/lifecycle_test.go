package server

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/api"
	"repro/internal/fault"
	"repro/internal/gen"
	"repro/sim"
)

// edge is one serving-state transition as Tracked.move reports it.
type edge struct{ from, to TrackerState }

// recordMoves installs the move trace for the rest of the test. Call it
// before the tracker is built and after the registry's Close is deferred
// with t.Cleanup, so the hook outlives the probe and batches that read it.
func recordMoves(t *testing.T) (moves func() []edge) {
	t.Helper()
	var mu sync.Mutex
	var seen []edge
	traceMove = func(_ *Tracked, from, to TrackerState) {
		mu.Lock()
		seen = append(seen, edge{from, to})
		mu.Unlock()
	}
	t.Cleanup(func() { traceMove = nil })
	return func() []edge {
		mu.Lock()
		defer mu.Unlock()
		return append([]edge(nil), seen...)
	}
}

// poisonedTracker boots a durable tracker, ingests a little, then breaks
// wal.log so that the next append fails, its rollback fails and every attempt
// to recreate the file fails too — until the injector is cleared.
func poisonedTracker(t *testing.T) (*Tracked, *fault.Injector, func() []edge) {
	t.Helper()
	inj := fault.NewInjector(fault.OS())
	reg := NewRegistry()
	reg.SetFS(inj)
	reg.SetDataDir(t.TempDir())
	moves := recordMoves(t)
	t.Cleanup(func() { _ = reg.Close() }) // runs before recordMoves' cleanup
	tr, err := reg.Add("default", durableSpec)
	if err != nil {
		t.Fatal(err)
	}
	actions := durableStream(300)
	submitChunks(t, tr, actions[:200], 100)
	if len(moves()) != 0 {
		t.Fatalf("healthy ingest moved the state: %v", moves())
	}
	for _, op := range []fault.Op{fault.OpWrite, fault.OpTruncate, fault.OpOpen} {
		inj.Add(fault.Rule{Op: op, Path: walFileName})
	}
	if _, err := tr.Submit(context.Background(), actions[200:]); !errors.Is(err, ErrDurability) {
		t.Fatalf("poisoning submit: err = %v, want ErrDurability", err)
	}
	return tr, inj, moves
}

// waitFor polls cond until it holds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLifecycleEdges drives every row of the lifecycle table and asserts,
// through the trace move keeps for tests, that nothing else is ever stored:
// the state enters recovering once per recovery attempt that actually runs,
// and a probe tick the backoff declines makes no move at all.
func TestLifecycleEdges(t *testing.T) {
	t.Run("every edge", func(t *testing.T) {
		compressTimers(t)
		tr, inj, moves := poisonedTracker(t)
		failed := edge{StateRecovering, StateDegradedReadOnly}
		waitFor(t, "a failed recovery attempt", func() bool {
			m := moves()
			return len(m) > 0 && m[len(m)-1] == failed
		})
		inj.Clear() // the disk heals
		waitFor(t, "recovery", func() bool { return tr.State() == StateOK })

		got := moves()
		taken := map[edge]bool{}
		attempts := int64(0)
		for _, e := range got {
			taken[e] = true
			if e.to == StateRecovering {
				attempts++
			}
		}
		want := map[edge]bool{}
		for from, tos := range lifecycle {
			for _, to := range tos {
				want[edge{from, to}] = true
			}
		}
		if !reflect.DeepEqual(taken, want) {
			t.Fatalf("edges taken %v, want exactly the table's %v (trace %v)", taken, want, got)
		}
		if first, last := got[0], got[len(got)-1]; first != (edge{StateOK, StateDegradedReadOnly}) || last != (edge{StateRecovering, StateOK}) {
			t.Fatalf("trace runs %v … %v, want ok → degraded-readonly … recovering → ok", first, last)
		}
		// Every attempt ended one way or the other, and nothing else entered
		// recovering: no snapshot is attempted outside the probe while the
		// log is poisoned.
		m := tr.Metrics()
		retries, rearms := m.SnapshotRetries, m.WALRearms
		if rearms != 1 || attempts != retries+rearms {
			t.Fatalf("%d moves into recovering for %d failed + %d successful attempts", attempts, retries, rearms)
		}
	})

	t.Run("no move inside the backoff", func(t *testing.T) {
		compressTimers(t)
		snapshotBackoffBase, snapshotBackoffMax = time.Hour, time.Hour
		tr, _, moves := poisonedTracker(t)
		want := []edge{
			{StateOK, StateDegradedReadOnly},
			{StateDegradedReadOnly, StateRecovering},
			{StateRecovering, StateDegradedReadOnly},
		}
		waitFor(t, "the first, failing attempt", func() bool { return len(moves()) >= len(want) })
		time.Sleep(20 * rearmProbeInterval) // ticks the hour-long backoff declines
		if got := moves(); !reflect.DeepEqual(got, want) {
			t.Fatalf("trace %v, want %v and nothing after it", got, want)
		}
		if st := tr.State(); st != StateDegradedReadOnly {
			t.Fatalf("state = %v between attempts, want degraded-readonly", st)
		}
	})
}

// TestMoveRefusesUnlistedEdge: an edge the table does not hold is a bug, and
// move says so instead of storing it.
func TestMoveRefusesUnlistedEdge(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ok → recovering was taken; it is not in the table")
		}
	}()
	(&Tracked{name: "t"}).move(StateRecovering)
}

// parkGate runs a Query whose closure blocks until release is closed, and
// returns once it holds the tracker's gate; the returned channel yields the
// Query's error.
func parkGate(tk *Tracked, release <-chan struct{}) <-chan error {
	parked := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- tk.Query(context.Background(), func(*sim.Tracker) {
			close(parked)
			<-release
		})
	}()
	<-parked
	return done
}

// waitDepth waits until n callers wait for tk's gate.
func waitDepth(t *testing.T, tk *Tracked, n int) {
	t.Helper()
	waitFor(t, fmt.Sprintf("queue depth %d", n), func() bool {
		depth, _ := tk.QueueDepth()
		return depth == n
	})
}

// TestShutdownDrainsQueue fills the bounded ingest queue behind a parked
// gate and closes the registry while they wait: every queued batch must be
// applied before Close returns, and the drained state must match a serial
// replay.
func TestShutdownDrainsQueue(t *testing.T) {
	reg := NewRegistry()
	setForTest(t, &queueLen, 128)
	tk, err := reg.Add("default", api.Spec{K: 5, Window: 400})
	if err != nil {
		t.Fatal(err)
	}
	actions := gen.Stream(gen.SynO(300, 3000, 500, 42))
	ctx := context.Background()
	release := make(chan struct{})
	parked := parkGate(tk, release)
	var submits []chan error
	for i := 0; i < len(actions); i += 50 {
		end := min(i+50, len(actions))
		done := make(chan error, 1)
		go func() {
			_, err := tk.Submit(ctx, actions[i:end])
			done <- err
		}()
		submits = append(submits, done)
		// One at a time, so the batches reach the gate in stream order.
		waitDepth(t, tk, len(submits))
	}
	closed := make(chan error, 1)
	go func() { closed <- reg.Close() }()
	<-tk.quit // draining has begun; the queued batches still hold their slots
	close(release)
	if err := <-parked; err != nil {
		t.Fatalf("parked query: %v", err)
	}
	for i, done := range submits {
		if err := <-done; err != nil {
			t.Fatalf("submit at %d: %v", i*50, err)
		}
	}
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	snap := tk.Snapshot()
	if snap.Processed != int64(len(actions)) {
		t.Fatalf("drained %d actions, want %d", snap.Processed, len(actions))
	}
	ref, err := sim.New(api.Spec{K: 5, Window: 400}.Config())
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.ProcessAll(actions); err != nil {
		t.Fatal(err)
	}
	// The replay publishes once where the server published per batch; the
	// view counters tell the two histories apart, the state must not.
	got, want := *snap, ref.Snapshot()
	got.ViewRebuilds, got.ViewReuses, got.ViewRefreshed = want.ViewRebuilds, want.ViewReuses, want.ViewRefreshed
	if !reflect.DeepEqual(got, want) {
		t.Errorf("drained snapshot differs from serial replay:\n got %+v\nwant %+v", got, want)
	}

	// After Close, all entry points fail with ErrClosed.
	if _, err := tk.Submit(ctx, actions[:1]); err != ErrClosed {
		t.Errorf("Submit after Close = %v, want ErrClosed", err)
	}
	if err := tk.Query(ctx, func(*sim.Tracker) {}); err != ErrClosed {
		t.Errorf("Query after Close = %v, want ErrClosed", err)
	}
	// Close is idempotent.
	if err := reg.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// TestAbandonedWaiterNeverRuns: a caller whose context ends while it waits
// for the gate gets the context's error, and its work never runs — neither
// an ingest batch (so a 503 for it means "not applied") nor a query closure.
func TestAbandonedWaiterNeverRuns(t *testing.T) {
	reg := NewRegistry()
	tk, err := reg.Add("default", api.Spec{K: 5, Window: 400})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	actions := gen.Stream(gen.SynO(300, 100, 500, 42))

	// waitThenCancel queues call behind a parked gate, cancels its context
	// once it is queued, and returns call's error after the gate is free
	// again and one more caller has run behind it.
	waitThenCancel := func(call func(ctx context.Context) error) error {
		release := make(chan struct{})
		parked := parkGate(tk, release)
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- call(ctx) }()
		waitDepth(t, tk, 1)
		cancel()
		err := <-done
		close(release)
		if err := <-parked; err != nil {
			t.Fatalf("parked query: %v", err)
		}
		if err := tk.Query(context.Background(), func(*sim.Tracker) {}); err != nil {
			t.Fatalf("query behind the abandoned caller: %v", err)
		}
		return err
	}

	err = waitThenCancel(func(ctx context.Context) error {
		_, err := tk.Submit(ctx, actions)
		return err
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned Submit = %v, want context.Canceled", err)
	}
	if got := tk.Snapshot().Processed; got != 0 {
		t.Fatalf("abandoned batch was applied: processed = %d", got)
	}

	var ran atomic.Bool
	err = waitThenCancel(func(ctx context.Context) error {
		return tk.Query(ctx, func(*sim.Tracker) { ran.Store(true) })
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned Query = %v, want context.Canceled", err)
	}
	if ran.Load() {
		t.Fatal("abandoned query closure ran")
	}
}

package server

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/api"
	"repro/internal/fault"
	"repro/internal/gen"
	"repro/sim"
)

// poisonedTracker boots a durable tracker, ingests 200 actions of
// durableStream(300), then breaks wal.log so that the append of the other
// 100 fails, its rollback fails and every attempt to recreate the file fails
// too — until the injector is cleared. It returns once that batch has left
// the tracker degraded-readonly.
func poisonedTracker(t *testing.T) (*Tracked, *fault.Injector) {
	t.Helper()
	inj := fault.NewInjector(fault.OS())
	reg := NewRegistry()
	reg.SetFS(inj)
	reg.SetDataDir(t.TempDir())
	t.Cleanup(func() { _ = reg.Close() })
	tr, err := reg.Add("default", durableSpec)
	if err != nil {
		t.Fatal(err)
	}
	actions := durableStream(300)
	submitChunks(t, tr, actions[:200], 100)
	if st := tr.State(); st != StateOK {
		t.Fatalf("state = %v after healthy ingest, want ok", st)
	}
	for _, op := range []fault.Op{fault.OpWrite, fault.OpTruncate, fault.OpOpen} {
		inj.Add(fault.Rule{Op: op, Path: walFileName})
	}
	if _, err := tr.Submit(context.Background(), actions[200:]); !errors.Is(err, ErrDurability) {
		t.Fatalf("poisoning submit: err = %v, want ErrDurability", err)
	}
	if st := tr.State(); st != StateDegradedReadOnly {
		t.Fatalf("state = %v after the poisoning submit, want degraded-readonly", st)
	}
	return tr, inj
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

// TestLifecycleEdges drives both edges of the serving state on the write
// path alone, where State is what the last Submit left: a batch whose append
// poisons the log takes ok → degraded-readonly; inside the backoff its
// failed re-arm scheduled, batches are refused and attempt nothing; once the
// disk heals, the first batch the backoff lets through re-arms the log, takes
// degraded-readonly → ok and is applied.
func TestLifecycleEdges(t *testing.T) {
	rest := durableStream(300)[200:]

	t.Run("no move inside the backoff", func(t *testing.T) {
		setForTest(t, &snapshotBackoffBase, time.Hour)
		setForTest(t, &snapshotBackoffMax, time.Hour)
		tr, _ := poisonedTracker(t)
		// The poisoning batch retried the log at once and failed: one retry.
		before := tr.Metrics()
		if before.SnapshotRetries != 1 {
			t.Fatalf("snapshot retries = %d after the poisoning batch, want 1", before.SnapshotRetries)
		}
		for i := 0; i < 20; i++ {
			if _, err := tr.Submit(context.Background(), rest); !errors.Is(err, ErrReadOnly) {
				t.Fatalf("submit %d inside the backoff: err = %v, want ErrReadOnly", i, err)
			}
			if st := tr.State(); st != StateDegradedReadOnly {
				t.Fatalf("submit %d inside the backoff: state = %v, want degraded-readonly", i, st)
			}
		}
		m := tr.Metrics()
		if m.SnapshotRetries != before.SnapshotRetries || m.WALRearms != 0 {
			t.Fatalf("inside the backoff: snapshot retries %d → %d, wal rearms %d; want no attempt",
				before.SnapshotRetries, m.SnapshotRetries, m.WALRearms)
		}
		if got := tr.Snapshot().Processed; got != 200 {
			t.Fatalf("refused batches were applied: processed = %d, want 200", got)
		}
	})

	t.Run("every edge", func(t *testing.T) {
		compressTimers(t)
		tr, inj := poisonedTracker(t)
		inj.Clear() // the disk heals
		submitRetry(t, tr, rest)
		if st := tr.State(); st != StateOK {
			t.Fatalf("state = %v after the healing batch, want ok", st)
		}
		if n := tr.Metrics().WALRearms; n != 1 {
			t.Fatalf("wal rearms = %d, want 1", n)
		}
		checkAnswer(t, "healed", tr.Snapshot(), serialReference(t, durableStream(300)))
	})
}

// TestNoTrackerGoroutine: a tracker runs no goroutine of its own, durable
// or memory-only; its writer is always a caller holding its gate.
func TestNoTrackerGoroutine(t *testing.T) {
	reg := NewRegistry()
	defer reg.Close()
	durable := NewRegistry()
	durable.SetDataDir(t.TempDir())
	defer durable.Close()
	before := runtime.NumGoroutine()
	if _, err := reg.Add("memory", api.Spec{K: 5, Window: 400}); err != nil {
		t.Fatal(err)
	}
	if _, err := durable.Add("durable", durableSpec); err != nil {
		t.Fatal(err)
	}
	// Settling allows for goroutines of earlier tests that are still exiting;
	// one the trackers started would never let the count come back.
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before Add, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
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

package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/oracle"
	"repro/internal/stream"
)

func batchTestActions(seed int64, n, users int) []stream.Action {
	rng := rand.New(rand.NewSource(seed))
	out := make([]stream.Action, n)
	for i := range out {
		a := stream.Action{ID: stream.ActionID(i + 1), User: stream.UserID(rng.Intn(users)), Parent: stream.NoParent}
		if i > 0 && rng.Float64() < 0.6 {
			back := rng.Intn(min(i, 50)) + 1
			a.Parent = stream.ActionID(i + 1 - back)
		}
		out[i] = a
	}
	return out
}

// TestProcessBatchStructureMatchesProcess: under IC (no value-dependent
// pruning), batched processing must reproduce the serial run's checkpoint
// structure, window position and processed count exactly — batching changes
// oracle element granularity, never checkpoint maintenance.
func TestProcessBatchStructureMatchesProcess(t *testing.T) {
	cfg := Config{K: 5, N: 200, L: 20, Oracle: oracle.NewFactory(oracle.SieveStreaming, 0.1, nil)}
	actions := batchTestActions(3, 900, 40)
	for _, batchSize := range []int{1, 7, 20, 64} {
		serial, batched := MustNew(cfg), MustNew(cfg)
		for _, a := range actions {
			if err := serial.Process(a); err != nil {
				t.Fatal(err)
			}
		}
		for lo := 0; lo < len(actions); lo += batchSize {
			hi := min(lo+batchSize, len(actions))
			if err := batched.ProcessBatch(actions[lo:hi]); err != nil {
				t.Fatal(err)
			}
		}
		if s, b := serial.CheckpointStarts(), batched.CheckpointStarts(); !reflect.DeepEqual(s, b) {
			t.Fatalf("batch=%d: checkpoint starts diverged: serial %v batch %v", batchSize, s, b)
		}
		if s, b := serial.WindowStart(), batched.WindowStart(); s != b {
			t.Fatalf("batch=%d: window start diverged: %d vs %d", batchSize, s, b)
		}
		if s, b := serial.Processed(), batched.Processed(); s != b {
			t.Fatalf("batch=%d: processed diverged: %d vs %d", batchSize, s, b)
		}
		// Coarser elements must not change what the answering checkpoint
		// covers; its value is the same objective over the same suffix
		// reached through a different admission interleaving, so it stays
		// within the oracle's guarantee band rather than bit-equal. Sanity:
		// both runs produce a non-trivial solution.
		if serial.Value() <= 0 || batched.Value() <= 0 {
			t.Fatalf("batch=%d: degenerate values: serial %v batch %v", batchSize, serial.Value(), batched.Value())
		}
	}
}

// TestProcessBatchSingleIsExact: Process is a 1-action ProcessBatch, Latest
// fast path included.
func TestProcessBatchSingleIsExact(t *testing.T) {
	cfg := Config{K: 4, N: 100, L: 10, Beta: 0.1, Sparse: true,
		Oracle: oracle.NewFactory(oracle.SieveStreaming, 0.1, nil)}
	actions := batchTestActions(5, 400, 25)
	serial, batched := MustNew(cfg), MustNew(cfg)
	for _, a := range actions {
		if err := serial.Process(a); err != nil {
			t.Fatal(err)
		}
		if err := batched.ProcessBatch([]stream.Action{a}); err != nil {
			t.Fatal(err)
		}
	}
	if s, b := serial.Value(), batched.Value(); s != b {
		t.Fatalf("values diverged: %v vs %v", s, b)
	}
	if s, b := serial.Seeds(), batched.Seeds(); !reflect.DeepEqual(s, b) {
		t.Fatalf("seeds diverged: %v vs %v", s, b)
	}
	if s, b := serial.Stats(), batched.Stats(); s != b {
		t.Fatalf("stats diverged: %+v vs %+v", s, b)
	}
}

// TestProcessBatchSIC: SIC's retained Λ[x0] and pruning still hold under
// batching — checkpoint count stays logarithmic and the answer non-trivial.
func TestProcessBatchSIC(t *testing.T) {
	cfg := Config{K: 5, N: 200, L: 10, Beta: 0.2, Sparse: true,
		Oracle: oracle.NewFactory(oracle.SieveStreaming, 0.2, nil)}
	f := MustNew(cfg)
	actions := batchTestActions(9, 1200, 30)
	for lo := 0; lo < len(actions); lo += 25 {
		hi := min(lo+25, len(actions))
		if err := f.ProcessBatch(actions[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	if f.Value() <= 0 || len(f.Seeds()) == 0 {
		t.Fatalf("degenerate SIC answer: value %v seeds %v", f.Value(), f.Seeds())
	}
	if got, dense := f.Checkpoints(), cfg.N/cfg.L; got >= dense {
		t.Fatalf("SIC kept %d checkpoints, dense IC would keep %d — pruning inactive", got, dense)
	}
	if err := f.ProcessBatch(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
}

// TestProcessBatchOrderRule: every kind of stream-order violation, first,
// in the middle and last in a batch of 1 and of 7, under IC and SIC —
// ProcessBatch returns the stream's sentinel and leaves the framework in the
// state (Save bytes) of one that was handed the actions before the offender.
func TestProcessBatchOrderRule(t *testing.T) {
	violations := []struct {
		name  string
		spoil func(a *stream.Action, last stream.ActionID)
		want  error
	}{
		{"id-equal", func(a *stream.Action, last stream.ActionID) { a.ID = last }, stream.ErrNonMonotonicID},
		{"id-lower", func(a *stream.Action, last stream.ActionID) { a.ID = last - 3 }, stream.ErrNonMonotonicID},
		{"parent-self", func(a *stream.Action, _ stream.ActionID) { a.Parent = a.ID }, stream.ErrBadParent},
		{"parent-future", func(a *stream.Action, _ stream.ActionID) { a.Parent = a.ID + 2 }, stream.ErrBadParent},
	}
	positions := []struct {
		size int
		pos  []int
	}{{1, []int{0}}, {7, []int{0, 3, 6}}}
	const warm = 120 // past the first expiry of a 60-action window
	actions := batchTestActions(29, warm+7, 15)
	save := func(f *Framework) []byte {
		var buf bytes.Buffer
		if err := f.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, sparse := range []bool{false, true} {
		cfg := Config{K: 3, N: 60, L: 5, Beta: 0.2, Sparse: sparse,
			Oracle: oracle.NewFactory(oracle.SieveStreaming, 0.2, nil)}
		for _, v := range violations {
			for _, at := range positions {
				for _, pos := range at.pos {
					t.Run(fmt.Sprintf("sparse=%v/%s/size=%d/pos=%d", sparse, v.name, at.size, pos), func(t *testing.T) {
						got, want := MustNew(cfg), MustNew(cfg)
						for _, f := range []*Framework{got, want} {
							for lo := 0; lo < warm; lo += at.size {
								if err := f.ProcessBatch(actions[lo:min(lo+at.size, warm)]); err != nil {
									t.Fatal(err)
								}
							}
						}
						batch := append([]stream.Action(nil), actions[warm:warm+at.size]...)
						last := stream.ActionID(warm)
						if pos > 0 {
							last = batch[pos-1].ID
						}
						v.spoil(&batch[pos], last)

						if err := want.ProcessBatch(batch[:pos]); err != nil {
							t.Fatal(err)
						}
						if err := got.ProcessBatch(batch); !errors.Is(err, v.want) {
							t.Fatalf("err = %v, want %v", err, v.want)
						}
						if got.Processed() != int64(warm+pos) {
							t.Fatalf("processed = %d, want %d", got.Processed(), warm+pos)
						}
						if !bytes.Equal(save(got), save(want)) {
							t.Fatal("framework state differs from one fed the prefix alone")
						}
					})
				}
			}
		}
	}
}

// TestCheckpointSampleRule pins what AvgCheckpoints averages. Per-action
// processing samples the live checkpoints after each action's maintenance:
// the two constants are cpSamples as the commit before ProcessBatch became
// the only ingest function reported it for this very loop (its separate
// Process, run on this stream and configuration in a scratch clone of that
// commit). A batch of n samples its first n−1 actions after their admission
// and the last after the batch-end maintenance.
func TestCheckpointSampleRule(t *testing.T) {
	actions := batchTestActions(17, 1500, 40)
	for _, c := range []struct {
		sparse  bool
		samples int64
	}{{true, 17833}, {false, 40650}} {
		cfg := Config{K: 5, N: 300, L: 10, Beta: 0.1, Sparse: c.sparse,
			Oracle: oracle.NewFactory(oracle.SieveStreaming, 0.1, nil)}
		f := MustNew(cfg)
		for _, a := range actions {
			if err := f.Process(a); err != nil {
				t.Fatal(err)
			}
		}
		if f.cpSamples != c.samples {
			t.Errorf("sparse=%v: Process × %d sampled %d checkpoints, the per-action engine sampled %d",
				c.sparse, len(actions), f.cpSamples, c.samples)
		}
		if got, want := f.Stats().AvgCheckpoints, float64(c.samples)/float64(len(actions)); got != want {
			t.Errorf("sparse=%v: AvgCheckpoints = %v, want %v", c.sparse, got, want)
		}

		const n = 25
		f = MustNew(cfg)
		held := false // some batch end deleted checkpoints its admissions had counted
		for lo := 0; lo < len(actions); lo += n {
			before, live := f.cpSamples, int64(f.Checkpoints())
			want := int64(0)
			for i := 0; i < n; i++ {
				if (lo+i)%cfg.L == 0 {
					live++ // this admission opens a checkpoint; nothing is deleted before the batch ends
				}
				if i < n-1 {
					want += live
				}
			}
			if err := f.ProcessBatch(actions[lo : lo+n]); err != nil {
				t.Fatal(err)
			}
			held = held || int64(f.Checkpoints()) < live
			want += int64(f.Checkpoints())
			if got := f.cpSamples - before; got != want {
				t.Fatalf("sparse=%v: batch at %d sampled %d, want %d admissions plus one post-maintenance count = %d",
					c.sparse, lo, got, n-1, want)
			}
		}
		if !held {
			t.Fatalf("sparse=%v: vacuous run: no batch end deleted a checkpoint", c.sparse)
		}
	}
}

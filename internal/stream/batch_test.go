package stream

import (
	"math/rand"
	"reflect"
	"testing"
)

func randomActions(seed int64, n, users int) []Action {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Action, n)
	for i := range out {
		a := Action{ID: ActionID(i + 1), User: UserID(rng.Intn(users)), Parent: NoParent}
		if i > 0 && rng.Float64() < 0.6 {
			a.Parent = ActionID(rng.Intn(i) + 1)
		}
		out[i] = a
	}
	return out
}

// TestIngestBatchMatchesIngest: batch ingestion must leave the stream in the
// same state as per-action ingestion and report the same deltas.
func TestIngestBatchMatchesIngest(t *testing.T) {
	actions := randomActions(11, 400, 30)
	serial, batched := New(), New()

	var wantDeltas []Delta
	for _, a := range actions {
		d, err := serial.Ingest(a)
		if err != nil {
			t.Fatal(err)
		}
		d.Contributors = append([]UserID(nil), d.Contributors...)
		d.Prev = append([]ActionID(nil), d.Prev...)
		wantDeltas = append(wantDeltas, d)
	}

	var gotDeltas []Delta
	for lo := 0; lo < len(actions); {
		hi := lo + 1 + lo%7 // uneven batch sizes, including 1
		if hi > len(actions) {
			hi = len(actions)
		}
		ds, err := batched.IngestBatch(actions[lo:hi])
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range ds {
			d.Contributors = append([]UserID(nil), d.Contributors...)
			d.Prev = append([]ActionID(nil), d.Prev...)
			gotDeltas = append(gotDeltas, d)
		}
		checkLogBytes(t, batched)
		lo = hi
	}

	if !reflect.DeepEqual(wantDeltas, gotDeltas) {
		for i := range wantDeltas {
			if !reflect.DeepEqual(wantDeltas[i], gotDeltas[i]) {
				t.Fatalf("delta %d diverged: serial %+v batch %+v", i, wantDeltas[i], gotDeltas[i])
			}
		}
		t.Fatal("deltas diverged")
	}

	for u := UserID(0); u < 30; u++ {
		if s, b := serial.InfluenceSet(u, 1), batched.InfluenceSet(u, 1); !reflect.DeepEqual(s, b) {
			t.Fatalf("influence set of %d diverged: %v vs %v", u, s, b)
		}
	}
}

// TestIngestBatchDeltasStayValid: all deltas of one batch must be readable
// together (the per-call aliasing of Ingest is exactly what batching lifts).
func TestIngestBatchDeltasStayValid(t *testing.T) {
	st := New()
	actions := []Action{
		{ID: 1, User: 1, Parent: NoParent},
		{ID: 2, User: 2, Parent: 1},
		{ID: 3, User: 3, Parent: 2},
		{ID: 4, User: 4, Parent: 3},
	}
	ds, err := st.IngestBatch(actions)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]UserID{{1}, {2, 1}, {3, 2, 1}, {4, 3, 2, 1}}
	for i, d := range ds {
		if !reflect.DeepEqual(d.Contributors, want[i]) {
			t.Fatalf("delta %d contributors = %v, want %v", i, d.Contributors, want[i])
		}
	}
}

// TestIngestBatchValidatesUpFront: a bad action anywhere in the batch must
// reject the whole batch without mutating the stream.
func TestIngestBatchValidatesUpFront(t *testing.T) {
	st := New()
	if _, err := st.Ingest(Action{ID: 5, User: 1, Parent: NoParent}); err != nil {
		t.Fatal(err)
	}
	cases := [][]Action{
		{{ID: 6, User: 1, Parent: NoParent}, {ID: 6, User: 2, Parent: NoParent}}, // duplicate in batch
		{{ID: 4, User: 1, Parent: NoParent}},                                     // behind stream
		{{ID: 7, User: 1, Parent: NoParent}, {ID: 8, User: 2, Parent: 9}},        // future parent
		{{ID: 9, User: 1, Parent: 9}},                                            // self parent
	}
	for i, batch := range cases {
		if _, err := st.IngestBatch(batch); err == nil {
			t.Fatalf("case %d: batch accepted, want error", i)
		}
		if st.Last() != 5 || st.Len() != 1 {
			t.Fatalf("case %d: stream mutated by rejected batch (last=%d len=%d)", i, st.Last(), st.Len())
		}
	}
}

// TestIngestBatchEmpty: an empty batch is a no-op.
func TestIngestBatchEmpty(t *testing.T) {
	st := New()
	ds, err := st.IngestBatch(nil)
	if err != nil || len(ds) != 0 {
		t.Fatalf("empty batch: %v %v", ds, err)
	}
}

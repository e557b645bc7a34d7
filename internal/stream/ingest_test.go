package stream

import (
	"bytes"
	"errors"
	"fmt"
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

// orderViolations lists every way an action can break the stream-order rule,
// as an edit of a valid action, with the error it must draw.
var orderViolations = []struct {
	name  string
	spoil func(a *Action, last ActionID)
	want  error
}{
	{"id-equal", func(a *Action, last ActionID) { a.ID = last }, ErrNonMonotonicID},
	{"id-lower", func(a *Action, last ActionID) { a.ID = last - 3 }, ErrNonMonotonicID},
	{"parent-self", func(a *Action, _ ActionID) { a.Parent = a.ID }, ErrBadParent},
	{"parent-future", func(a *Action, _ ActionID) { a.Parent = a.ID + 2 }, ErrBadParent},
}

// orderPositions places the offender first, in the middle and last in a batch,
// at both batch sizes the identity suites use.
var orderPositions = []struct {
	size int
	pos  []int
}{{1, []int{0}}, {7, []int{0, 3, 6}}}

// copyDeltas detaches deltas from the stream's arenas.
func copyDeltas(ds []Delta) []Delta {
	out := make([]Delta, len(ds))
	for i, d := range ds {
		d.Contributors = append([]UserID(nil), d.Contributors...)
		d.Prev = append([]ActionID(nil), d.Prev...)
		out[i] = d
	}
	return out
}

// TestIngestBatchOrderRule: whatever breaks the order rule, wherever in the
// batch, IngestBatch ingests exactly the actions before it — it returns their
// deltas with the sentinel error and leaves the stream in the state (Save
// bytes) of one that was handed the prefix alone.
func TestIngestBatchOrderRule(t *testing.T) {
	const warm = 40
	actions := randomActions(23, warm+7, 12)
	for _, v := range orderViolations {
		for _, at := range orderPositions {
			for _, pos := range at.pos {
				size := at.size
				t.Run(fmt.Sprintf("%s/size=%d/pos=%d", v.name, size, pos), func(t *testing.T) {
					got, want := New(), New()
					for _, s := range []*Stream{got, want} {
						if _, err := s.IngestBatch(actions[:warm]); err != nil {
							t.Fatal(err)
						}
					}
					batch := append([]Action(nil), actions[warm:warm+size]...)
					last := ActionID(warm)
					if pos > 0 {
						last = batch[pos-1].ID
					}
					v.spoil(&batch[pos], last)

					wantDeltas, err := want.IngestBatch(batch[:pos])
					if err != nil {
						t.Fatal(err)
					}
					wantDeltas = copyDeltas(wantDeltas)
					gotDeltas, err := got.IngestBatch(batch)
					if !errors.Is(err, v.want) {
						t.Fatalf("err = %v, want %v", err, v.want)
					}
					if !reflect.DeepEqual(copyDeltas(gotDeltas), wantDeltas) {
						t.Fatalf("deltas = %+v, want the prefix's %+v", gotDeltas, wantDeltas)
					}
					var gotBytes, wantBytes bytes.Buffer
					if err := got.Save(&gotBytes); err != nil {
						t.Fatal(err)
					}
					if err := want.Save(&wantBytes); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(gotBytes.Bytes(), wantBytes.Bytes()) {
						t.Fatal("stream state differs from one fed the prefix alone")
					}
					if pos == 0 {
						if _, err := got.Ingest(batch[0]); !errors.Is(err, v.want) {
							t.Fatalf("Ingest err = %v, want %v", err, v.want)
						}
					}
				})
			}
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

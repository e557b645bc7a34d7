package dataio

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/stream"
)

// bulkActions is one request body of the benchmark's bulk workload: 2 000
// numeric actions of the Twitter-like stream, seed 1.
func bulkActions() []stream.Action {
	return gen.Stream(gen.TwitterLike(8000, 2000, 8000, 1))
}

// trickleActions is one request body of the trickle workload: 4 name-mode
// actions, users named as the benchmark names them.
func trickleActions() []NamedAction {
	out := make([]NamedAction, 4)
	for i, a := range bulkActions()[:len(out)] {
		out[i] = NamedAction{ID: a.ID, User: fmt.Sprintf("u%d", a.User), Parent: a.Parent}
	}
	return out
}

// BenchmarkNDJSON times both directions of the wire codec on the two body
// shapes the ingest path carries: a numeric bulk body and a named trickle
// body. ns/action is ns/op over the body's action count.
func BenchmarkNDJSON(b *testing.B) {
	bulk, trickle := bulkActions(), trickleActions()
	var bulkBody, trickleBody bytes.Buffer
	if err := WriteNDJSON(&bulkBody, bulk); err != nil {
		b.Fatal(err)
	}
	if err := WriteNDJSONNamed(&trickleBody, trickle); err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name    string
		actions int
		run     func() error
	}{
		{"decode/bulk", len(bulk), func() error {
			return ReadNDJSON(bytes.NewReader(bulkBody.Bytes()), func(stream.Action) bool { return true })
		}},
		{"decode/trickle", len(trickle), func() error {
			return ReadNDJSONNamed(bytes.NewReader(trickleBody.Bytes()), func(NamedAction) bool { return true })
		}},
		{"encode/bulk", len(bulk), func() error {
			var buf bytes.Buffer
			return WriteNDJSON(&buf, bulk)
		}},
		{"encode/trickle", len(trickle), func() error {
			var buf bytes.Buffer
			return WriteNDJSONNamed(&buf, trickle)
		}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if err := c.run(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*c.actions), "ns/action")
		})
	}
}

package core

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/oracle"
)

// TestRecyclingSavesIdentically: handing a deleted checkpoint's oracle to
// the next new checkpoint changes nothing observable. A framework that
// recycles and one whose free list is emptied after every step — so each of
// its checkpoints gets an oracle straight from the factory — answer alike
// and Save byte-identically all along the stream, under IC and SIC, with
// both oracles that can Reset, per action and batched.
func TestRecyclingSavesIdentically(t *testing.T) {
	actions := batchTestActions(21, 3000, 60)
	for _, sparse := range []bool{false, true} {
		for _, kind := range []oracle.Kind{oracle.SieveStreaming, oracle.ThresholdStream} {
			for _, batch := range []int{1, 7} {
				t.Run(fmt.Sprintf("sparse=%v/%v/batch=%d", sparse, kind, batch), func(t *testing.T) {
					var made [2]int // oracles the factory built for each framework
					newFramework := func(i int) *Framework {
						factory := oracle.NewFactory(kind, 0.2, nil)
						return MustNew(Config{K: 5, N: 300, L: 10, Beta: 0.2, Sparse: sparse,
							Oracle: func(k int) oracle.Oracle { made[i]++; return factory(k) }})
					}
					recycling, fresh := newFramework(0), newFramework(1)
					for lo, step := 0, 0; lo < len(actions); lo, step = lo+batch, step+1 {
						chunk := actions[lo:min(lo+batch, len(actions))]
						if err := recycling.ProcessBatch(chunk); err != nil {
							t.Fatal(err)
						}
						if err := fresh.ProcessBatch(chunk); err != nil {
							t.Fatal(err)
						}
						fresh.free = fresh.free[:0]
						if step%41 != 0 && lo+batch < len(actions) {
							continue
						}
						if r, f := recycling.Value(), fresh.Value(); r != f {
							t.Fatalf("action %d: value %v, without recycling %v", lo, r, f)
						}
						if r, f := recycling.Seeds(), fresh.Seeds(); !reflect.DeepEqual(r, f) {
							t.Fatalf("action %d: seeds %v, without recycling %v", lo, r, f)
						}
						if r, f := recycling.Stats(), fresh.Stats(); r != f {
							t.Fatalf("action %d: stats %+v, without recycling %+v", lo, r, f)
						}
						var rb, fb bytes.Buffer
						if err := recycling.Save(&rb); err != nil {
							t.Fatal(err)
						}
						if err := fresh.Save(&fb); err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(rb.Bytes(), fb.Bytes()) {
							t.Fatalf("action %d: Save bytes differ from the framework without recycling", lo)
						}
					}
					if int64(made[1]) != fresh.Stats().Created {
						t.Fatalf("emptied free list still served oracles: %d built for %d checkpoints", made[1], fresh.Stats().Created)
					}
					if made[0] >= made[1] {
						t.Fatalf("nothing was recycled: %d oracles built, %d without recycling", made[0], made[1])
					}
				})
			}
		}
	}
}

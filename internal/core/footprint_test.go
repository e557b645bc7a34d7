package core

import (
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/oracle"
)

// TestBoundTableFootprint holds the sieve grids' gain-bound tables to what
// they were sized from — the users some scan rejected, not every user of
// every checkpoint nor a hash table's load factor: on
// TestServedQualityOnBenchmarkStreams' Twitter/SIC stream, at every slide
// boundary of a full window, the tables of the live checkpoints together
// hold at most a quarter more row memory than their rows fill, plus the
// index. Rows stored inside the hash cells (at most ¾ full, doubling) fail
// this, and so do rows a recycled grid keeps from its last owner (measured
// 1.3–1.6). A cardinality grid's rows are float32, 4 bytes a bound. The
// table is private to package oracle and has no accessor production code
// would use, so the sizes are read by reflection.
func TestBoundTableFootprint(t *testing.T) {
	const (
		k, n, l = 50, 1000, 50
		beta    = 0.1
	)
	fw := MustNew(Config{
		K: k, N: n, L: l, Beta: beta, Sparse: true,
		Oracle: oracle.NewFactory(oracle.SieveStreaming, beta, nil),
	})
	peakRows := 0
	for i, a := range gen.Stream(gen.TwitterLike(1000, 5*n, n, 1)) {
		if err := fw.Process(a); err != nil {
			t.Fatal(err)
		}
		if (i+1)%l != 0 || i+1 < n {
			continue
		}
		var rows, held, index int // rows in use, rows of memory held, index cells
		rowBytes := 0
		for _, cp := range fw.cps {
			tab := reflect.ValueOf(cp.oracle).Elem().FieldByName("grid").FieldByName("gainUB")
			width := int(tab.FieldByName("width").Int())
			rows += int(tab.FieldByName("n").Int())
			index += tab.FieldByName("index").Len()
			for _, list := range []string{"chunks32", "chunks64"} {
				chunks := tab.FieldByName(list)
				for c := 0; c < chunks.Len(); c++ {
					if rowBytes = width * int(chunks.Type().Elem().Elem().Size()); rowBytes != 4*width {
						t.Fatalf("t=%d: a cardinality grid keeps %d-byte rows of %d gain bounds, not 4 bytes a bound", a.ID, rowBytes, width)
					}
					held += chunks.Index(c).Cap() / width
				}
			}
		}
		if float64(held) > 1.25*float64(rows) {
			t.Fatalf("t=%d: %d checkpoints hold memory for %d gain-bound rows (%d B each, +%d B of index) and use %d",
				a.ID, len(fw.cps), held, rowBytes, 8*index, rows)
		}
		peakRows = max(peakRows, rows)
	}
	if peakRows == 0 {
		t.Fatal("no checkpoint ever cached a gain bound")
	}
}

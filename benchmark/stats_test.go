package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending input: tail must sort a copy
	}
	return xs
}

func TestTailPicksHighestPercentileWithTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n       int
		wantPct float64
		wantVal float64 // with samples 1..n, the value below the `beyond` largest
	}{
		{10000, 99.9, 9990}, // 10 beyond
		{9999, 99, 9900},    // 99.9 would leave 9 beyond
		{1000, 99, 990},
		{999, 95, 950},
		{200, 95, 190},
		{199, 90, 180},
		{100, 90, 90},
		{99, 75, 75},
		{40, 75, 30},
		{39, 50, 20}, // too few for any tail: the median
		{1, 50, 1},
	}
	for _, c := range cases {
		xs := seq(c.n)
		pct, v := tail(xs)
		if pct != c.wantPct || v != c.wantVal {
			t.Errorf("n=%d: tail = p%v %v, want p%v %v", c.n, pct, v, c.wantPct, c.wantVal)
		}
		if xs[0] != float64(c.n) {
			t.Errorf("n=%d: tail reordered its input", c.n)
		}
	}
	if pct, v := tail(nil); pct != 50 || v != 0 {
		t.Errorf("tail(nil) = p%v %v", pct, v)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v", got)
	}
}

// The acceptance rule is stated in terms of Python's
// statistics.quantiles(values, n=4); these are its outputs.
func TestQuartilesMatchPythonStatistics(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3, 5}, 2, 8.5},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{2, 4, 4, 5, 7, 9, 11}, 4, 9},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("spread = %v, want 5.5/5.5", got)
	}
}

package main

import (
	"sort"
	"time"
)

// median returns the middle value of xs (mean of the middle two for even
// lengths), 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailLadder is the set of percentiles a tail may be reported at, in tenths
// of a percent so the sample arithmetic stays in integers.
var tailLadder = []int{999, 990, 950, 900, 750}

// minBeyond is how many samples must lie beyond a reported percentile: with
// fewer, the "percentile" is one or two outliers and does not repeat.
const minBeyond = 10

// tail returns the highest percentile of tailLadder that still has at least
// minBeyond samples beyond it, and the value at that percentile. With too
// few samples for even the lowest rung it falls back to the median (pct 50).
func tail(xs []float64) (pct, value float64) {
	n := len(xs)
	if n == 0 {
		return 50, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for _, p := range tailLadder {
		// Samples strictly beyond the p-th percentile position.
		beyond := n * (1000 - p) / 1000
		if beyond >= minBeyond {
			return float64(p) / 10, s[n-1-beyond]
		}
	}
	return 50, median(s)
}

// ms converts durations to float milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

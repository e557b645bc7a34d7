package oracle

import (
	"repro/internal/submod"
)

// Threshold implements ThresholdStream (Kumar et al., "Fast greedy
// algorithms in MapReduce and streaming") through the Set-Stream Mapping.
// Like SieveStreaming it guesses OPT on a (1+β) grid over [m, 2km] and
// keeps one candidate per guess, but each candidate uses the flat admission
// threshold opt/(2k) rather than the residual-based one, giving the same
// (1/2 − β) guarantee with a slightly different admission pattern.
//
// Everything except the admission threshold is identical to Sieve and lives
// in the embedded grid.
type Threshold struct {
	grid
}

// NewThreshold returns a ThresholdStream oracle for cardinality constraint k
// and grid granularity beta in (0, 1).
func NewThreshold(k int, beta float64, w submod.Weights) *Threshold {
	return &Threshold{grid: newGrid(k, beta, w, true)}
}

package oracle

import (
	"repro/internal/submod"
)

// Sieve implements SieveStreaming (Badanidiyuru et al.) adapted through the
// Set-Stream Mapping: it maintains O(log k / β) instances whose OPT guesses
// (1+β)^j lie in [m, 2km] for the largest observed singleton value m, and
// answers with the best instance. An instance admits an element when the
// marginal gain clears the residual threshold (opt/2 − f(CX)) / (k − |CX|)
// (paper Eq. 2). Guarantees a (1/2 − β) approximation on the append-only
// element stream, hence on SIM for its suffix by Theorem 2.
//
// All instance state and grid maintenance (the user-major bit-row tables,
// retuning, the monotone best-ever answer cache) live in the embedded grid,
// shared with Threshold.
type Sieve struct {
	grid
}

// NewSieve returns a SieveStreaming oracle for cardinality constraint k and
// threshold granularity beta in (0, 1).
func NewSieve(k int, beta float64, w submod.Weights) *Sieve {
	return &Sieve{grid: newGrid(k, beta, w, false)}
}

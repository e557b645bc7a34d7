package main

import (
	"repro/internal/greedy"
	"repro/internal/stream"
	"repro/internal/submod"
)

// evaluator is the benchmark's own influence index: a stream.Stream fed a
// slice of the global action stream and never advanced, so influence sets
// for any start inside the slice are exact over that slice. It is the
// referee for every served answer — the servers never see it, and it never
// sees the servers' state.
type evaluator struct {
	st *stream.Stream
}

// newEvaluator indexes actions (ascending IDs). Parents that precede the
// slice are treated as roots, exactly as stream.Stream treats a parent it
// never saw: influence is counted only along reply chains inside the slice.
func newEvaluator(actions []stream.Action) (*evaluator, error) {
	st := stream.NewSized(len(actions))
	for _, a := range actions {
		if _, err := st.Ingest(a); err != nil {
			return nil, err
		}
	}
	return &evaluator{st: st}, nil
}

// coverage is f(I_start(seeds)) under the cardinality objective: the number
// of distinct users influenced by any seed through actions at or after
// start.
func (e *evaluator) coverage(seeds []stream.UserID, start stream.ActionID) float64 {
	cov := submod.NewCoverage(nil)
	for _, u := range seeds {
		e.st.Influence(u, start, func(v stream.UserID) bool {
			cov.Add(v)
			return true
		})
	}
	return cov.Value()
}

// greedy is the lazy-greedy (1−1/e) reference solution over the same index.
func (e *evaluator) greedy(k int, start stream.ActionID) ([]stream.UserID, float64) {
	return greedy.Select(e.st, start, k, nil)
}

//go:build race

package sim_test

// raceEnabled: the race detector allocates on its own account, so tests that
// count allocations skip under it.
const raceEnabled = true

//go:build race

package dataio

// raceEnabled: the race detector allocates on its own account and drops
// pooled buffers, so tests that count allocations skip under it.
const raceEnabled = true

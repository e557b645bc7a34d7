package server

import (
	"testing"
	"time"
)

// setForTest sets *p to v until t ends. The seams below are package
// variables, so a test that sets one must not run in parallel with another
// that reads it.
func setForTest[T any](t testing.TB, p *T, v T) {
	old := *p
	*p = v
	t.Cleanup(func() { *p = old })
}

// ShrinkQueue gives the trackers Registry.Add builds until t ends an ingest
// queue of n commands and an enqueue deadline of d, so a test can fill the
// queue and see the shed quickly.
func ShrinkQueue(t testing.TB, n int, d time.Duration) {
	setForTest(t, &queueLen, n)
	setForTest(t, &enqueueDeadline, d)
}

// CapBody caps ingest bodies at n bytes until t ends, so a test reaches 413
// with a small body.
func CapBody(t testing.TB, n int64) { setForTest(t, &maxBodyBytes, n) }

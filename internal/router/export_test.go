package router

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

// SetProbeInterval paces the down-shard re-probe of the routers New builds
// until t ends.
func SetProbeInterval(t testing.TB, d time.Duration) { setForTest(t, &probeInterval, d) }

// CapBody caps ingest bodies at n bytes until t ends, so a test reaches 413
// with a small body.
func CapBody(t testing.TB, n int64) { setForTest(t, &maxBodyBytes, n) }

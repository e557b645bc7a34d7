package main

import (
	"context"
	"time"
)

// loopResult is what one driver loop observed: per-call latency and, for
// open loops, how late each call started relative to its due time.
type loopResult struct {
	calls int   // calls issued
	idx   []int // the i of each successful call, parallel to lat
	lat   []time.Duration
	late  []time.Duration // open loops only, parallel to lat
	errs  int
}

// openLoop issues call(i) for i = 0..n-1 on a fixed schedule: call i is due
// at start + i*period, regardless of how long earlier calls took. Calls run
// one at a time on the caller's goroutine (one connection), so a slow call
// makes the following ones late; latency is therefore stamped from the DUE
// time — the wait a stall imposes on later requests counts — and the
// lateness of each start is reported separately so a slow generator is
// visible. It stops early when ctx is done — between calls, never inside
// one: a loop of unknown length (the reader, which runs for as long as the
// ingester does) passes a huge n and is ended through ctx.
//
// after, when non-nil, runs untimed once call(i) has succeeded — the place
// for follow-up checks that must not count towards the call's latency (they
// can still make the next call late, which the lateness record shows).
func openLoop(ctx context.Context, start time.Time, period time.Duration, n int, call func(i int) error, after func(i int)) loopResult {
	var r loopResult
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * period)
		if d := time.Until(due); d > 0 {
			select {
			case <-ctx.Done():
				return r
			case <-time.After(d):
			}
		} else if ctx.Err() != nil {
			return r
		}
		began := time.Now()
		r.calls++
		err := call(i)
		done := time.Now()
		if err != nil {
			r.errs++
			continue
		}
		r.idx = append(r.idx, i)
		r.lat = append(r.lat, done.Sub(due))
		r.late = append(r.late, began.Sub(due))
		if after != nil {
			after(i)
		}
	}
	return r
}

// closedLoop issues call(i) for i = 0..n-1 back to back — a fixed amount of
// work, however long it takes — stopping early only when ctx is done. after
// is the same untimed hook openLoop takes.
func closedLoop(ctx context.Context, n int, call func(i int) error, after func(i int)) loopResult {
	var r loopResult
	for i := 0; i < n && ctx.Err() == nil; i++ {
		began := time.Now()
		r.calls++
		if err := call(i); err != nil {
			r.errs++
			continue
		}
		r.idx = append(r.idx, i)
		r.lat = append(r.lat, time.Since(began))
		if after != nil {
			after(i)
		}
	}
	return r
}

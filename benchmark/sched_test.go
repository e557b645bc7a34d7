package main

import (
	"context"
	"errors"
	"testing"
	"time"
)

// A callee slower than the period makes every later call late; latency must
// be stamped from the due time, so it grows by (callee − period) per call
// even though each call takes the same time. Only lower bounds are asserted:
// a loaded machine can make anything later, never earlier.
func TestOpenLoopStampsFromDueTimeUnderSlowCallee(t *testing.T) {
	const (
		period = 10 * time.Millisecond
		slow   = 30 * time.Millisecond
		n      = 5
	)
	start := time.Now().Add(5 * time.Millisecond)
	var began []time.Time
	r := openLoop(context.Background(), start, period, n, func(int) error {
		began = append(began, time.Now())
		time.Sleep(slow)
		return nil
	}, nil)
	if len(r.lat) != n || len(r.late) != n || r.errs != 0 {
		t.Fatalf("got %d latencies, %d lateness, %d errors", len(r.lat), len(r.late), r.errs)
	}
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * period)
		if began[i].Before(due) {
			t.Errorf("call %d began %v before it was due", i, due.Sub(began[i]))
		}
		// Call i cannot start before the i earlier calls have finished.
		wantLate := time.Duration(i) * (slow - period)
		if r.late[i] < wantLate {
			t.Errorf("call %d: lateness %v, want at least %v", i, r.late[i], wantLate)
		}
		if r.lat[i] < r.late[i]+slow {
			t.Errorf("call %d: latency %v does not include its lateness %v plus the call %v", i, r.lat[i], r.late[i], slow)
		}
	}
}

func TestOpenLoopOnTimeCalleeIsNotLate(t *testing.T) {
	start := time.Now()
	r := openLoop(context.Background(), start, 5*time.Millisecond, 10, func(int) error { return nil }, nil)
	if len(r.lat) != 10 || r.calls != 10 {
		t.Fatalf("got %d samples of %d calls", len(r.lat), r.calls)
	}
	if total := time.Since(start); total < 45*time.Millisecond {
		t.Errorf("10 calls at 5 ms took %v: the schedule was not kept", total)
	}
	for i, late := range r.late {
		if late < 0 {
			t.Errorf("call %d started %v before it was due", i, -late)
		}
		if r.lat[i] < late {
			t.Errorf("call %d: latency %v is less than its lateness %v", i, r.lat[i], late)
		}
	}
}

func TestLoopsCountFailuresAsMissingAndSkipAfter(t *testing.T) {
	var after []int
	fail := errors.New("boom")
	r := openLoop(context.Background(), time.Now(), time.Millisecond, 6, func(i int) error {
		if i%2 == 1 {
			return fail
		}
		return nil
	}, func(i int) { after = append(after, i) })
	if r.errs != 3 || len(r.lat) != 3 {
		t.Errorf("open loop: %d errors, %d samples; want 3 and 3", r.errs, len(r.lat))
	}
	if len(after) != 3 || after[0] != 0 || after[1] != 2 || after[2] != 4 {
		t.Errorf("after hook ran for %v, want the successful calls 0 2 4", after)
	}
	for j, i := range r.idx {
		if i != 2*j {
			t.Errorf("sample %d is call %d, want %d", j, i, 2*j)
		}
	}

	c := closedLoop(context.Background(), 4, func(i int) error {
		if i == 1 {
			return fail
		}
		return nil
	}, nil)
	if c.calls != 4 || c.errs != 1 || len(c.lat) != 3 {
		t.Errorf("closed loop: %d calls, %d errors, %d samples; want 4, 1, 3", c.calls, c.errs, len(c.lat))
	}
}

func TestClosedLoopDoesFixedWorkAndLoopsStopOnCancel(t *testing.T) {
	began := time.Now()
	r := closedLoop(context.Background(), 3, func(int) error {
		time.Sleep(10 * time.Millisecond)
		return nil
	}, nil)
	if r.calls != 3 || len(r.lat) != 3 {
		t.Errorf("closed loop made %d calls (%d samples), want exactly 3", r.calls, len(r.lat))
	}
	if el := time.Since(began); el < 30*time.Millisecond {
		t.Errorf("three 10 ms calls back to back took %v", el)
	}
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	r = closedLoop(ctx, 100, func(int) error {
		if n++; n == 2 {
			cancel()
		}
		return nil
	}, nil)
	if r.calls != 2 {
		t.Errorf("closed loop made %d calls after being canceled in the second", r.calls)
	}
	if r := openLoop(ctx, time.Now().Add(time.Hour), time.Hour, 3, func(int) error { return nil }, nil); r.calls != 0 {
		t.Errorf("canceled open loop still made %d calls", r.calls)
	}
}

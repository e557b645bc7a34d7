package api

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/sim"
)

// retryServer answers every request with the queued (status, header, body)
// triples in order, then with 200 {"accepted":0,"processed":0}.
type retryServer struct {
	srv   *httptest.Server
	calls atomic.Int64
	queue []retryStep
}

type retryStep struct {
	status     int
	retryAfter string
	body       string
}

func newRetryServer(t *testing.T, steps ...retryStep) *retryServer {
	rs := &retryServer{queue: steps}
	rs.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := int(rs.calls.Add(1)) - 1
		if n >= len(rs.queue) {
			w.Write([]byte(`{"accepted":0,"processed":0}`))
			return
		}
		step := rs.queue[n]
		if step.retryAfter != "" {
			w.Header().Set("Retry-After", step.retryAfter)
		}
		w.WriteHeader(step.status)
		w.Write([]byte(step.body))
	}))
	t.Cleanup(rs.srv.Close)
	return rs
}

func retryClient(rs *retryServer, p RetryPolicy) (*Client, *[]time.Duration) {
	c := NewClient(rs.srv.URL)
	c.Retry = p
	slept := &[]time.Duration{}
	c.sleep = func(ctx context.Context, d time.Duration) error {
		*slept = append(*slept, d)
		return nil
	}
	return c, slept
}

var retryBatch = []sim.Action{{ID: 1, User: 2, Parent: -1}}

// TestRetryAfterMalformed: a Retry-After the seconds-form parser cannot use
// (HTTP-date, negative, fractional, text) degrades to the plain exponential
// backoff — never a panic, never a stuck zero-length wait loop.
func TestRetryAfterMalformed(t *testing.T) {
	for _, hdr := range []string{"soon", "-5", "1.5", "Wed, 21 Oct 2015 07:28:00 GMT"} {
		t.Run(hdr, func(t *testing.T) {
			rs := newRetryServer(t,
				retryStep{503, hdr, `{"error":"draining","code":503}`},
				retryStep{503, hdr, `{"error":"draining","code":503}`},
			)
			c, slept := retryClient(rs, RetryPolicy{MaxRetries: 3, MinBackoff: 10 * time.Millisecond})
			if _, err := c.Ingest(context.Background(), "x", retryBatch); err != nil {
				t.Fatalf("ingest: %v", err)
			}
			if rs.calls.Load() != 3 {
				t.Fatalf("%d attempts, want 3", rs.calls.Load())
			}
			// Malformed hint = no hint: doubling backoff from MinBackoff.
			want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond}
			if len(*slept) != 2 || (*slept)[0] != want[0] || (*slept)[1] != want[1] {
				t.Fatalf("slept %v, want %v", *slept, want)
			}
		})
	}
}

// TestRetryBackoffDoublingAndCap: with no Retry-After at all the waits
// double from MinBackoff and clamp at 5 s.
func TestRetryBackoffDoublingAndCap(t *testing.T) {
	rs := newRetryServer(t,
		retryStep{503, "", `{"error":"a","code":503}`},
		retryStep{503, "", `{"error":"b","code":503}`},
		retryStep{503, "", `{"error":"c","code":503}`},
		retryStep{503, "", `{"error":"d","code":503}`},
	)
	c, slept := retryClient(rs, RetryPolicy{MaxRetries: 4, MinBackoff: 2 * time.Second})
	if _, err := c.Ingest(context.Background(), "x", retryBatch); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	want := []time.Duration{2 * time.Second, 4 * time.Second, 5 * time.Second, 5 * time.Second}
	if len(*slept) != len(want) {
		t.Fatalf("slept %v, want %v", *slept, want)
	}
	for i := range want {
		if (*slept)[i] != want[i] {
			t.Fatalf("wait %d = %v, want %v (all: %v)", i, (*slept)[i], want[i], *slept)
		}
	}
}

// TestRetryAfterShorterThanBackoff: the server hint only ever lengthens a
// wait; a 1-second hint under a 2-second floor loses.
func TestRetryAfterShorterThanBackoff(t *testing.T) {
	rs := newRetryServer(t, retryStep{429, "1", `{"error":"shed","code":429}`})
	c, slept := retryClient(rs, RetryPolicy{MaxRetries: 1, MinBackoff: 2 * time.Second})
	if _, err := c.Ingest(context.Background(), "x", retryBatch); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	if len(*slept) != 1 || (*slept)[0] != 2*time.Second {
		t.Fatalf("slept %v, want one 2s wait", *slept)
	}
}

// TestRetryNonJSONErrorBody: a 503 whose body is not the ErrorResponse
// envelope still decodes into a retryable *Error carrying the raw text.
func TestRetryNonJSONErrorBody(t *testing.T) {
	rs := newRetryServer(t, retryStep{503, "", "upstream proxy melted"})
	c, _ := retryClient(rs, RetryPolicy{MaxRetries: 2, MinBackoff: time.Millisecond})
	if _, err := c.Ingest(context.Background(), "x", retryBatch); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	if rs.calls.Load() != 2 {
		t.Fatalf("%d attempts, want 2 (non-JSON 503 must stay retryable)", rs.calls.Load())
	}
}

// TestRetryQueryIsIdempotent: /query is a POST but carries no state change,
// so transport failures retry it — unlike ingest, pinned by
// TestClientRetry. A server that dies after the first byte exercises the
// transport-error path rather than a status code.
func TestRetryQueryIsIdempotent(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			// Hijack and sever the connection mid-response: the client
			// sees a transport error, not an HTTP status.
			hj := w.(http.Hijacker)
			conn, _, _ := hj.Hijack()
			conn.Close()
			return
		}
		w.Write([]byte(`{"columns":["user"],"rows":[]}`))
	}))
	defer srv.Close()
	c := NewClient(srv.URL)
	c.Retry = RetryPolicy{MaxRetries: 2, MinBackoff: time.Millisecond}
	c.sleep = func(ctx context.Context, d time.Duration) error { return nil }
	resp, err := c.Query(context.Background(), "x", QueryRequest{})
	if err != nil {
		t.Fatalf("query after transport error: %v", err)
	}
	if calls.Load() != 2 {
		t.Fatalf("%d attempts, want 2", calls.Load())
	}
	if len(resp.Columns) != 1 {
		t.Fatalf("bad final response: %+v", resp)
	}
}

// TestRetryCanceledDuringBackoff: a context canceled while waiting stops
// the loop and surfaces the LAST SERVER ERROR (what actually went wrong),
// not the cancellation.
func TestRetryCanceledDuringBackoff(t *testing.T) {
	rs := newRetryServer(t,
		retryStep{503, "", `{"error":"draining","code":503}`},
		retryStep{503, "", `{"error":"draining","code":503}`},
	)
	c := NewClient(rs.srv.URL)
	c.Retry = RetryPolicy{MaxRetries: 5, MinBackoff: time.Millisecond}
	ctx, cancel := context.WithCancel(context.Background())
	c.sleep = func(ctx context.Context, d time.Duration) error {
		cancel()
		return ctx.Err()
	}
	_, err := c.Ingest(ctx, "x", retryBatch)
	var apiErr *Error
	if !errors.As(err, &apiErr) || apiErr.Code != http.StatusServiceUnavailable {
		t.Fatalf("got %v, want the 503 *Error", err)
	}
	if rs.calls.Load() != 1 {
		t.Fatalf("%d attempts after cancel, want 1", rs.calls.Load())
	}
}

// TestRetryCanceledTransport: a transport error caused by the caller's own
// cancellation is never retried, even on idempotent requests.
func TestRetryCanceledTransport(t *testing.T) {
	var calls atomic.Int64
	blocked := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		<-blocked
	}))
	defer srv.Close()
	defer close(blocked)
	c := NewClient(srv.URL)
	c.Retry = RetryPolicy{MaxRetries: 5, MinBackoff: time.Millisecond}
	c.sleep = func(ctx context.Context, d time.Duration) error { return nil }
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	_, err := c.Value(ctx, "x")
	if err == nil {
		t.Fatal("expected error from canceled GET")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("%d attempts, want 1 (caller cancellation must not retry)", calls.Load())
	}
}

// TestRetryZeroPolicy: the zero RetryPolicy preserves single-attempt
// behavior on every class of failure.
func TestRetryZeroPolicy(t *testing.T) {
	rs := newRetryServer(t, retryStep{503, "3", `{"error":"draining","code":503}`})
	c := NewClient(rs.srv.URL)
	c.sleep = func(ctx context.Context, d time.Duration) error {
		t.Error("zero policy slept")
		return nil
	}
	_, err := c.Ingest(context.Background(), "x", retryBatch)
	var apiErr *Error
	if !errors.As(err, &apiErr) || apiErr.Code != http.StatusServiceUnavailable {
		t.Fatalf("got %v, want 503", err)
	}
	if apiErr.RetryAfter != 3*time.Second {
		t.Fatalf("RetryAfter = %v, want 3s (hint still decoded for the caller)", apiErr.RetryAfter)
	}
	if rs.calls.Load() != 1 {
		t.Fatalf("%d attempts, want 1", rs.calls.Load())
	}
}

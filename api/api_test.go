package api

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/sim"
)

// TestReadSpecs checks spec-file parsing, including failure on typos.
func TestReadSpecs(t *testing.T) {
	specs, err := ReadSpecs(strings.NewReader(
		`{"trackers": {"a": {"k": 3, "window": 100, "framework": "ic", "oracle": "threshold"},
		               "b": {"k": 1, "window": 50, "batch": 10, "names": true}}}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 {
		t.Fatalf("want 2 specs, got %d", len(specs))
	}
	a := specs["a"]
	if a.K != 3 || a.Window != 100 || a.Framework != sim.IC || a.Oracle != sim.ThresholdStream {
		t.Errorf("spec a = %+v", a)
	}
	if b := specs["b"]; b.Batch != 10 || !b.Names {
		t.Errorf("spec b = %+v", b)
	}
	if _, err := ReadSpecs(strings.NewReader(`{"trackers": {"a": {"k": 3, "windoww": 9}}}`)); err == nil {
		t.Error("typo in spec field should fail")
	}
	// Removed fields are rejected by name, not ignored: a spec that still
	// sets one says so at startup. The queue (256 commands) and the enqueue
	// deadline (2 s) are server constants now.
	for _, field := range []string{"parallelism", "queue", "enqueue_deadline_ms"} {
		doc := fmt.Sprintf(`{"trackers": {"a": {"k": 3, "window": 10, %q: 4}}}`, field)
		if _, err := ReadSpecs(strings.NewReader(doc)); err == nil ||
			!strings.Contains(err.Error(), `unknown field "`+field+`"`) {
			t.Errorf(`spec with %q: err = %v, want an unknown-field error naming it`, field, err)
		}
	}
	if _, err := ReadSpecs(strings.NewReader(`{"trackers": {}}`)); err == nil {
		t.Error("empty spec should fail")
	}
	if _, err := ReadSpecs(strings.NewReader(`{"trackers": {"a": {"k": 3, "window": 10, "oracle": "bogus"}}}`)); err == nil {
		t.Error("unknown oracle name should fail")
	}
}

// TestClientErrorDecoding covers both halves of the client's non-2xx path:
// the structured ErrorResponse envelope and the raw-body fallback for
// responses that did not come from our handlers (proxies, panics).
func TestClientErrorDecoding(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/trackers/enveloped":
			w.WriteHeader(http.StatusConflict)
			w.Write([]byte(`{"error":"stream order violated","code":409}`))
		case "/v1/trackers/raw":
			w.WriteHeader(http.StatusBadGateway)
			w.Write([]byte("upstream fell over"))
		default:
			w.WriteHeader(http.StatusTeapot)
		}
	}))
	defer srv.Close()
	c := NewClient(srv.URL + "/") // trailing slash is trimmed

	_, err := c.Snapshot(context.Background(), "enveloped")
	var apiErr *Error
	if !errors.As(err, &apiErr) || apiErr.Code != http.StatusConflict ||
		apiErr.Message != "stream order violated" {
		t.Errorf("enveloped error = %v", err)
	}
	if !strings.Contains(apiErr.Error(), "409") {
		t.Errorf("Error() should mention the status: %q", apiErr.Error())
	}

	_, err = c.Snapshot(context.Background(), "raw")
	if !errors.As(err, &apiErr) || apiErr.Code != http.StatusBadGateway ||
		apiErr.Message != "upstream fell over" {
		t.Errorf("raw-body error = %v", err)
	}

	_, err = c.Snapshot(context.Background(), "empty")
	if !errors.As(err, &apiErr) || apiErr.Code != http.StatusTeapot {
		t.Errorf("empty-body error = %v", err)
	}
}

// TestClientRetry covers the retry loop's safety rules: 503/429 retry on
// any method (the server guarantees those were not applied), deterministic
// statuses (409) never retry, a Retry-After hint is parsed into the error,
// and MaxRetries bounds the attempts.
func TestClientRetry(t *testing.T) {
	var ingests, conflicts atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/trackers/flaky/actions":
			if ingests.Add(1) < 3 { // two 503s, then success
				w.Header().Set("Retry-After", "7")
				w.WriteHeader(http.StatusServiceUnavailable)
				w.Write([]byte(`{"error":"draining","code":503}`))
				return
			}
			body, _ := io.ReadAll(r.Body)
			w.Write([]byte(`{"accepted":` + strconv.Itoa(strings.Count(string(body), "\n")) + `,"processed":9}`))
		case "/v1/trackers/conflicted/actions":
			conflicts.Add(1)
			w.WriteHeader(http.StatusConflict)
			w.Write([]byte(`{"error":"stream order violated","code":409}`))
		case "/v1/trackers/hopeless/actions":
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":"shed","code":429}`))
		}
	}))
	defer srv.Close()
	c := NewClient(srv.URL)
	c.Retry = RetryPolicy{MaxRetries: 3, MinBackoff: time.Millisecond}
	var slept []time.Duration
	c.sleep = func(ctx context.Context, d time.Duration) error {
		slept = append(slept, d)
		return nil
	}
	batch := []sim.Action{{ID: 1, User: 2, Parent: -1}}

	// 503s retry even on ingest — the body is resent from the start.
	resp, err := c.Ingest(context.Background(), "flaky", batch)
	if err != nil || resp.Accepted != 1 || resp.Processed != 9 {
		t.Fatalf("flaky ingest: %+v, %v (attempts=%d)", resp, err, ingests.Load())
	}
	if ingests.Load() != 3 {
		t.Fatalf("flaky ingest took %d attempts, want 3", ingests.Load())
	}
	// The server's Retry-After (7s) outweighs the tiny backoff.
	if len(slept) != 2 || slept[0] != 7*time.Second {
		t.Fatalf("slept %v, want two 7s waits", slept)
	}

	// 409 is deterministic: exactly one attempt.
	_, err = c.Ingest(context.Background(), "conflicted", batch)
	var apiErr *Error
	if !errors.As(err, &apiErr) || apiErr.Code != http.StatusConflict {
		t.Fatalf("conflicted ingest: %v", err)
	}
	if conflicts.Load() != 1 {
		t.Fatalf("409 was retried: %d attempts", conflicts.Load())
	}

	// A never-healing 429 exhausts MaxRetries and surfaces the error.
	slept = nil
	_, err = c.Ingest(context.Background(), "hopeless", batch)
	if !errors.As(err, &apiErr) || apiErr.Code != http.StatusTooManyRequests {
		t.Fatalf("hopeless ingest: %v", err)
	}
	if len(slept) != 3 {
		t.Fatalf("hopeless ingest slept %d times, want MaxRetries=3", len(slept))
	}

	// Transport errors retry only idempotent requests: an ingest against a
	// dead server fails on the first attempt, a GET keeps trying.
	srv.Close()
	slept = nil
	if _, err := c.Ingest(context.Background(), "flaky", batch); err == nil {
		t.Fatal("ingest against a closed server succeeded")
	}
	if len(slept) != 0 {
		t.Fatalf("non-idempotent transport failure was retried %d times", len(slept))
	}
	if _, err := c.Value(context.Background(), "flaky"); err == nil {
		t.Fatal("read against a closed server succeeded")
	}
	if len(slept) != 3 {
		t.Fatalf("idempotent transport failure retried %d times, want 3", len(slept))
	}
}

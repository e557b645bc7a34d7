package api

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/dataio"
	"repro/sim"
)

// DefaultTimeout bounds one HTTP attempt when Client.Timeout is zero.
const DefaultTimeout = 30 * time.Second

// RetryPolicy configures the client's opt-in retry loop. The zero value
// retries nothing, preserving single-attempt behavior.
//
// What retries is chosen for safety, not aggressiveness: a 429 or 503
// retries on ANY method, because the server's contract guarantees those
// statuses were not applied (see the package error contract) — even an
// ingest can be resent without double-applying. Transport-level failures
// (connection refused, reset, timeout) retry only on idempotent requests
// (the GETs and /query), because a dropped connection cannot prove the
// server never processed a POST /actions body.
type RetryPolicy struct {
	// MaxRetries is the number of re-attempts after the first try; 0
	// disables retrying.
	MaxRetries int
	// MinBackoff seeds the exponential backoff between attempts; 0 means
	// 100ms. Each retry doubles it, capped at 5s (maxBackoff). A server
	// Retry-After hint is honored when it is longer.
	MinBackoff time.Duration
}

// maxBackoff caps the wait the retry loop's doubling reaches.
const maxBackoff = 5 * time.Second

// Client is a typed client for the simserve HTTP API. The zero value is not
// usable; construct with NewClient. Methods return *Error for any non-2xx
// response, so callers can switch on the HTTP status:
//
//	var apiErr *api.Error
//	if errors.As(err, &apiErr) && apiErr.Code == http.StatusConflict { ... }
type Client struct {
	// BaseURL is the server root, e.g. "http://localhost:8080".
	BaseURL string
	// HTTPClient is the transport; nil means http.DefaultClient.
	HTTPClient *http.Client
	// Timeout bounds each individual attempt (not the whole retry loop —
	// the caller's ctx does that). 0 means DefaultTimeout; negative
	// disables the per-attempt bound.
	Timeout time.Duration
	// Retry enables retry with exponential backoff; see RetryPolicy for
	// the safety rules. The zero value never retries.
	Retry RetryPolicy
	// sleep is stubbed by tests; nil means a real timer wait.
	sleep func(ctx context.Context, d time.Duration) error
}

// NewClient returns a client for the server at baseURL (scheme://host:port,
// with or without a trailing slash).
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// retryable reports whether err may be retried on this request, and the
// server's Retry-After hint if it sent one.
func (c *Client) retryable(err error, idempotent bool) (bool, time.Duration) {
	var apiErr *Error
	if errors.As(err, &apiErr) {
		// 429/503 guarantee the request was not applied — safe on any
		// method. Everything else (400/404/409/413) is deterministic.
		return apiErr.Temporary(), apiErr.RetryAfter
	}
	// Transport failure: the request may or may not have reached the
	// server, so only idempotent requests are safe — and not ones the
	// caller itself canceled.
	if errors.Is(err, context.Canceled) {
		return false, 0
	}
	return idempotent, 0
}

// wait sleeps for d or until ctx is done, whichever first.
func (c *Client) wait(ctx context.Context, d time.Duration) error {
	if c.sleep != nil {
		return c.sleep(ctx, d)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// do issues a request — retried per c.Retry — and decodes a 2xx body into
// out (skipped when out is nil); non-2xx bodies become *Error. body is a
// byte slice, not a reader, so every retry attempt resends it from the
// start. idempotent marks requests safe to retry after transport errors.
func (c *Client) do(ctx context.Context, method, path, contentType string, body []byte, out any, idempotent bool) error {
	backoff := c.Retry.MinBackoff
	if backoff <= 0 {
		backoff = 100 * time.Millisecond
	}
	for attempt := 0; ; attempt++ {
		err := c.doOnce(ctx, method, path, contentType, body, out)
		if err == nil {
			return nil
		}
		ok, hint := c.retryable(err, idempotent)
		if !ok || attempt >= c.Retry.MaxRetries {
			return err
		}
		wait := min(backoff, maxBackoff)
		if hint > wait {
			wait = hint
		}
		if werr := c.wait(ctx, wait); werr != nil {
			return err
		}
		backoff *= 2
	}
}

// doOnce issues exactly one attempt under the per-attempt timeout.
func (c *Client) doOnce(ctx context.Context, method, path, contentType string, body []byte, out any) error {
	if c.Timeout >= 0 {
		timeout := c.Timeout
		if timeout == 0 {
			timeout = DefaultTimeout
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
	if err != nil {
		return fmt.Errorf("api: building request: %w", err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return fmt.Errorf("api: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return decodeError(resp)
	}
	if out == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("api: decoding %s %s response: %w", method, path, err)
	}
	return nil
}

// decodeError turns a non-2xx response into *Error, preferring the
// ErrorResponse body and falling back to the raw body text. A Retry-After
// header (seconds form) is carried into Error.RetryAfter.
func decodeError(resp *http.Response) error {
	var retryAfter time.Duration
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, err := strconv.Atoi(s); err == nil && secs >= 0 {
			retryAfter = time.Duration(secs) * time.Second
		}
	}
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	var er ErrorResponse
	if err := json.Unmarshal(raw, &er); err == nil && er.Error != "" {
		code := er.Code
		if code == 0 {
			code = resp.StatusCode
		}
		return &Error{Code: code, Message: er.Error, RetryAfter: retryAfter}
	}
	msg := strings.TrimSpace(string(raw))
	if msg == "" {
		msg = resp.Status
	}
	return &Error{Code: resp.StatusCode, Message: msg, RetryAfter: retryAfter}
}

func trackerPath(name, suffix string) string {
	return "/v1/trackers/" + url.PathEscape(name) + suffix
}

// Health fetches GET /v1/healthz.
func (c *Client) Health(ctx context.Context) (HealthResponse, error) {
	var out HealthResponse
	err := c.do(ctx, http.MethodGet, "/v1/healthz", "", nil, &out, true)
	return out, err
}

// HealthJSON fetches GET /v1/healthz undecoded, as whichever binary sent
// it: a simserve's HealthResponse or a simrouter's ClusterHealthResponse.
func (c *Client) HealthJSON(ctx context.Context) (json.RawMessage, error) {
	var out json.RawMessage
	err := c.do(ctx, http.MethodGet, "/v1/healthz", "", nil, &out, true)
	return out, err
}

// List fetches GET /v1/trackers.
func (c *Client) List(ctx context.Context) (ListResponse, error) {
	var out ListResponse
	err := c.do(ctx, http.MethodGet, "/v1/trackers", "", nil, &out, true)
	return out, err
}

// Snapshot fetches GET /v1/trackers/{name}: the tracker's full published
// read snapshot.
func (c *Client) Snapshot(ctx context.Context, name string) (sim.Snapshot, error) {
	var out sim.Snapshot
	err := c.do(ctx, http.MethodGet, trackerPath(name, ""), "", nil, &out, true)
	return out, err
}

// Seeds fetches GET /v1/trackers/{name}/seeds.
func (c *Client) Seeds(ctx context.Context, name string) (SeedsResponse, error) {
	var out SeedsResponse
	err := c.do(ctx, http.MethodGet, trackerPath(name, "/seeds"), "", nil, &out, true)
	return out, err
}

// Value fetches GET /v1/trackers/{name}/value.
func (c *Client) Value(ctx context.Context, name string) (ValueResponse, error) {
	var out ValueResponse
	err := c.do(ctx, http.MethodGet, trackerPath(name, "/value"), "", nil, &out, true)
	return out, err
}

// Window fetches GET /v1/trackers/{name}/window.
func (c *Client) Window(ctx context.Context, name string) (WindowResponse, error) {
	var out WindowResponse
	err := c.do(ctx, http.MethodGet, trackerPath(name, "/window"), "", nil, &out, true)
	return out, err
}

// Checkpoints fetches GET /v1/trackers/{name}/checkpoints.
func (c *Client) Checkpoints(ctx context.Context, name string) (CheckpointsResponse, error) {
	var out CheckpointsResponse
	err := c.do(ctx, http.MethodGet, trackerPath(name, "/checkpoints"), "", nil, &out, true)
	return out, err
}

// Stats fetches GET /v1/trackers/{name}/stats.
func (c *Client) Stats(ctx context.Context, name string) (StatsResponse, error) {
	var out StatsResponse
	err := c.do(ctx, http.MethodGet, trackerPath(name, "/stats"), "", nil, &out, true)
	return out, err
}

// TrackerMetrics fetches GET /v1/trackers/{name}/metrics: the tracker's
// serving state and self-healing counters.
func (c *Client) TrackerMetrics(ctx context.Context, name string) (TrackerMetricsResponse, error) {
	var out TrackerMetricsResponse
	err := c.do(ctx, http.MethodGet, trackerPath(name, "/metrics"), "", nil, &out, true)
	return out, err
}

// Candidates fetches GET /v1/trackers/{name}/candidates: the answering
// checkpoint's candidate pool with per-candidate influence sets, the
// shard-local half of the router's distributed seed selection.
func (c *Client) Candidates(ctx context.Context, name string) (CandidatesResponse, error) {
	var out CandidatesResponse
	err := c.do(ctx, http.MethodGet, trackerPath(name, "/candidates"), "", nil, &out, true)
	return out, err
}

// CandidatesRanked fetches GET /v1/trackers/{name}/candidates?ranked=1 from
// a simserve: at most K candidates in greedy pick order with their marginal
// gains and no influence sets (see CandidatesResponse) — what a router
// merges into /seeds.
func (c *Client) CandidatesRanked(ctx context.Context, name string) (CandidatesResponse, error) {
	var out CandidatesResponse
	err := c.do(ctx, http.MethodGet, trackerPath(name, "/candidates")+"?ranked=1", "", nil, &out, true)
	return out, err
}

// ClusterHealth fetches GET /v1/healthz from a router (cmd/simrouter),
// which answers with the cluster-shaped DTO instead of HealthResponse.
func (c *Client) ClusterHealth(ctx context.Context) (ClusterHealthResponse, error) {
	var out ClusterHealthResponse
	err := c.do(ctx, http.MethodGet, "/v1/healthz", "", nil, &out, true)
	return out, err
}

// Influence fetches GET /v1/trackers/{name}/influence?user=U. user is a
// decimal ID on numeric trackers and an external name on name-mode ones.
func (c *Client) Influence(ctx context.Context, name, user string) (InfluenceResponse, error) {
	var out InfluenceResponse
	err := c.do(ctx, http.MethodGet,
		trackerPath(name, "/influence")+"?user="+url.QueryEscape(user), "", nil, &out, true)
	return out, err
}

// Ingest POSTs actions as one NDJSON batch to a numeric-ID tracker.
func (c *Client) Ingest(ctx context.Context, name string, actions []sim.Action) (IngestResponse, error) {
	return c.ingest(ctx, name, dataio.AppendNDJSON(nil, actions))
}

// IngestNamed POSTs actions as one NDJSON batch to a name-mode tracker
// (Spec.Names): users are external string names, interned server-side.
func (c *Client) IngestNamed(ctx context.Context, name string, actions []NamedAction) (IngestResponse, error) {
	return c.ingest(ctx, name, dataio.AppendNDJSONNamed(nil, actions))
}

// ingest POSTs one NDJSON body to the tracker's /actions.
func (c *Client) ingest(ctx context.Context, name string, body []byte) (IngestResponse, error) {
	var out IngestResponse
	err := c.do(ctx, http.MethodPost, trackerPath(name, "/actions"),
		"application/x-ndjson", body, &out, false)
	return out, err
}

// Query POSTs a relational plan to /v1/trackers/{name}/query and returns
// the rows it produced against the tracker's current published snapshot.
func (c *Client) Query(ctx context.Context, name string, req QueryRequest) (QueryResponse, error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return QueryResponse{}, fmt.Errorf("api: encoding query: %w", err)
	}
	var out QueryResponse
	err = c.do(ctx, http.MethodPost, trackerPath(name, "/query"),
		"application/json", payload, &out, true)
	return out, err
}

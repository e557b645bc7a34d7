package api

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// The serving side of the wire contract: simserve (internal/server) and
// simrouter (internal/router) both answer through these, so a client sees
// one envelope and one set of caps whichever binary it talks to.

// DefaultMaxBodyBytes caps an ingest request body (64 MiB, roughly 3M
// NDJSON actions).
const DefaultMaxBodyBytes = 64 << 20

// DefaultQueryRowLimit caps the rows a /query response returns when the
// request does not set its own limit — on a router, the merged rows after
// per-shard pushdown. Truncation is reported in the response, never an
// error.
const DefaultQueryRowLimit = 10000

// maxQueryBodyBytes caps a /query request body; plans are small.
const maxQueryBodyBytes = 1 << 20

// WriteJSON emits v as the JSON body of a response with status code.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v) // the status line is already out; nothing to recover
}

// Write emits e as a response: the ErrorResponse envelope every non-2xx
// body is — {"error": ..., "code": <the HTTP status>} — preceded by a
// Retry-After header (whole seconds) when e carries a hint. A router passes
// a shard's *Error through this unchanged.
func (e *Error) Write(w http.ResponseWriter) {
	if e.RetryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(int(e.RetryAfter/time.Second)))
	}
	WriteJSON(w, e.Code, ErrorResponse{Error: e.Message, Code: e.Code})
}

// WriteError emits the error envelope for status code with a formatted
// message and no retry hint.
func WriteError(w http.ResponseWriter, code int, format string, args ...any) {
	(&Error{Code: code, Message: fmt.Sprintf(format, args...)}).Write(w)
}

// DecodeQuery reads the body of POST /v1/trackers/{name}/query — strict
// JSON, at most 1 MiB, a non-negative limit — and resolves the row cap the
// answer is cut to: the request's own limit, or DefaultQueryRowLimit when it
// sets none or a larger one. A bad body is answered 400 here; ok is then
// false.
func DecodeQuery(w http.ResponseWriter, r *http.Request) (req QueryRequest, limit int, ok bool) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxQueryBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		WriteError(w, http.StatusBadRequest, "bad query request: %v", err)
		return req, 0, false
	}
	if req.Limit < 0 {
		WriteError(w, http.StatusBadRequest, "bad query request: negative limit %d", req.Limit)
		return req, 0, false
	}
	limit = req.Limit
	if limit == 0 || limit > DefaultQueryRowLimit {
		limit = DefaultQueryRowLimit
	}
	return req, limit, true
}

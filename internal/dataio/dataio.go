// Package dataio reads and writes the repository's on-disk and on-wire
// formats.
//
// Action streams have one format, NDJSON: one {"id":…,"user":…,"parent":…}
// object per line, "parent" omitted for roots, with "user" a number or, for
// name-mode trackers, a string (ndjson.go, named.go). It is what simgen
// writes, what simctl ingest reads, and the body of POST
// /actions on simserve and simrouter. Readers deliver actions through a
// callback as they decode them, so a stream is never materialized whole and
// a live feed is served record by record.
//
// The codec is reflection-free where the project's own bytes flow. The
// writers append lines with strconv (AppendNDJSON, AppendNDJSONNamed),
// byte for byte what encoding/json writes. The readers convert a canonical
// line — the shape those writers emit — directly (scan.go) and hand the
// first other line, with the rest of the input, to a json.Decoder, which
// stays the definition of the accepted language: any input reads to the
// same actions and the same error either way.
//
// The package also holds the SIM2 snapshot container (sim2.go), the cold
// segment files (segment.go) and atomic file replacement (atomic.go).
package dataio

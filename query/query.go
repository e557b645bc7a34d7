// Package query is the lazy relational query layer over sim.Snapshot: a
// pull-based iterator protocol (Relation) with composable operators — scans
// over a snapshot's seed set, checkpoint chain and per-seed influence sets,
// plus Filter, Project, Join, TopK, WindowCompare, Resolve and Limit — and a
// small JSON plan language (Plan) the serving layer executes per request.
//
// # Why lazy
//
// Operators pull rows one at a time and reuse row buffers, in the
// lazy-sequences style of streaming relational-algebra executors (cf.
// janus-datalog's "From Volcano to Lazy Sequences"): a pipeline like
// scan → filter → top-k touches every input row exactly once and
// materializes nothing but the k rows it keeps, so its allocation cost is
// O(k) — independent of snapshot size. The eager reference evaluator
// (Plan.Materialize, in reference_test.go) computes identical results by
// materializing every intermediate relation; it lives on the test side, where
// it pins correctness and BenchmarkQueryTopK quantifies what laziness saves.
//
// # Why snapshots
//
// Every source reads an immutable sim.Snapshot, never a live tracker. The
// serving layer publishes snapshots through an atomic pointer after each
// applied batch, so analytics pipelines of any cost run concurrently with
// ingestion without sharing a single lock — the HTAP separation of
// transactional write path and analytical read path (Polynesia-style)
// applied to stream influence maximization.
//
// # Row contract
//
// Relation.Next returns a Row that remains valid only until the next Next
// call on the same relation: operators overwrite returned rows to keep the
// hot path allocation-free. Consumers that retain rows must Clone them
// (Collect does).
package query

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind discriminates a Value.
type Kind uint8

const (
	// Int is a signed 64-bit integer (user IDs, ranks, counts, action IDs).
	Int Kind = iota
	// Float is a 64-bit float (influence values).
	Float
	// Str is a string (statuses, resolved user names).
	Str
)

// Value is one cell of a row: a small tagged union that holds ints, floats
// and strings without boxing, so moving rows through a pipeline performs no
// heap allocation.
type Value struct {
	kind Kind
	i    int64
	f    float64
	s    string
}

// IntValue returns an Int value.
func IntValue(v int64) Value { return Value{kind: Int, i: v} }

// FloatValue returns a Float value.
func FloatValue(v float64) Value { return Value{kind: Float, f: v} }

// StringValue returns a Str value.
func StringValue(s string) Value { return Value{kind: Str, s: s} }

// Kind returns the value's kind.
func (v Value) Kind() Kind { return v.kind }

// Int returns the value as an int64 (truncating a Float, 0 for a Str).
func (v Value) Int() int64 {
	if v.kind == Float {
		return int64(v.f)
	}
	return v.i
}

// Float returns the value as a float64 (converting an Int, NaN for a Str).
func (v Value) Float() float64 {
	switch v.kind {
	case Float:
		return v.f
	case Int:
		return float64(v.i)
	default:
		return math.NaN()
	}
}

// Str returns the string of a Str value ("" otherwise; use String for a
// printable form of any value).
func (v Value) Str() string {
	if v.kind == Str {
		return v.s
	}
	return ""
}

// String renders the value for humans.
func (v Value) String() string {
	switch v.kind {
	case Int:
		return strconv.FormatInt(v.i, 10)
	case Float:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	default:
		return v.s
	}
}

// Compare totally orders values: numeric kinds (Int, Float) compare
// numerically against each other, strings compare lexically, and every
// numeric sorts before every string. Returns -1, 0 or 1.
func (v Value) Compare(o Value) int {
	vs, os := v.kind == Str, o.kind == Str
	switch {
	case vs && os:
		return strings.Compare(v.s, o.s)
	case vs:
		return 1
	case os:
		return -1
	case v.kind == Int && o.kind == Int:
		switch {
		case v.i < o.i:
			return -1
		case v.i > o.i:
			return 1
		}
		return 0
	default:
		a, b := v.Float(), o.Float()
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	}
}

// Equal reports Compare(o) == 0.
func (v Value) Equal(o Value) bool { return v.Compare(o) == 0 }

// key canonicalizes the value for hashing (Join build keys): a Float that
// holds an exact integer maps to the equal Int, so 3 joins with 3.0.
func (v Value) key() Value {
	if v.kind == Float && v.f == math.Trunc(v.f) && !math.IsInf(v.f, 0) &&
		v.f >= math.MinInt64 && v.f <= math.MaxInt64 {
		return Value{kind: Int, i: int64(v.f)}
	}
	return v
}

// MarshalJSON encodes Int and Float as JSON numbers and Str as a JSON
// string — rows on the wire look like ordinary JSON arrays.
func (v Value) MarshalJSON() ([]byte, error) {
	switch v.kind {
	case Int:
		return strconv.AppendInt(nil, v.i, 10), nil
	case Float:
		if math.IsNaN(v.f) || math.IsInf(v.f, 0) {
			return nil, fmt.Errorf("query: %v is not representable in JSON", v.f)
		}
		return json.Marshal(v.f)
	default:
		return json.Marshal(v.s)
	}
}

// UnmarshalJSON decodes a JSON string into Str and a JSON number into Int
// when it is an exact integer, Float otherwise. (Comparisons are
// cross-kind-numeric, so the Int/Float choice never changes an answer.)
func (v *Value) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		*v = StringValue(s)
		return nil
	}
	if i, err := strconv.ParseInt(string(b), 10, 64); err == nil {
		*v = IntValue(i)
		return nil
	}
	var f float64
	if err := json.Unmarshal(b, &f); err != nil {
		return fmt.Errorf("query: bad value literal %s: %w", b, err)
	}
	*v = FloatValue(f)
	return nil
}

// Row is one tuple. See the package comment for the validity contract.
type Row []Value

// Clone returns a copy of the row with its own backing array.
func (r Row) Clone() Row {
	return append(make(Row, 0, len(r)), r...)
}

// Schema names a relation's columns, in row order.
type Schema []string

// Col returns the index of the named column, or -1.
func (s Schema) Col(name string) int {
	for i, c := range s {
		if c == name {
			return i
		}
	}
	return -1
}

// clone returns an independent copy of the schema.
func (s Schema) clone() Schema {
	return append(make(Schema, 0, len(s)), s...)
}

// Relation is the pull-based iterator protocol every source and operator
// implements. Schema is constant over the relation's lifetime and callable
// before the first Next. Next returns the next row and true, or nil and
// false once exhausted; the row is valid until the following Next call.
type Relation interface {
	Schema() Schema
	Next() (Row, bool)
}

// Collect drains rel into cloned rows, stopping after limit rows when limit
// is positive; truncated reports whether more rows remained.
func Collect(rel Relation, limit int) (rows []Row, truncated bool) {
	for {
		r, ok := rel.Next()
		if !ok {
			return rows, false
		}
		if limit > 0 && len(rows) == limit {
			return rows, true
		}
		rows = append(rows, r.Clone())
	}
}

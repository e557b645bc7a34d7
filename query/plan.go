package query

import (
	"fmt"

	"repro/sim"
)

// Plan is the JSON query language the serving layer accepts: a source plus a
// chain of operators applied top to bottom. Example:
//
//	{
//	  "scan": "influence",
//	  "ops": [
//	    {"op": "join", "on": "seed", "right": {"scan": "seeds"}, "right_on": "user"},
//	    {"op": "filter", "col": "influence", "cmp": ">=", "value": 2},
//	    {"op": "topk", "col": "influence", "k": 5, "desc": true},
//	    {"op": "project", "cols": ["seed", "user", "influence"]}
//	  ]
//	}
type Plan struct {
	// Scan names a snapshot source: "seeds", "checkpoints" or "influence".
	Scan string `json:"scan,omitempty"`
	// Compare names a window-compare source over the previous and current
	// snapshots: "seeds" or "checkpoints". Exactly one of Scan and Compare
	// must be set.
	Compare string `json:"compare,omitempty"`
	// Ops is the operator chain, applied in order.
	Ops []Op `json:"ops,omitempty"`
}

// Op is one operator application in a plan.
type Op struct {
	// Op selects the operator: "filter", "project", "join", "topk",
	// "limit" or "names".
	Op string `json:"op"`

	// Col is the column filter compares, topk orders by, or — together
	// with Cols — names resolves.
	Col string `json:"col,omitempty"`
	// Cmp is filter's comparison: one of == != < <= > >=.
	Cmp string `json:"cmp,omitempty"`
	// Value is filter's right-hand literal.
	Value *Value `json:"value,omitempty"`

	// Cols lists project's output columns, or names' columns to resolve.
	Cols []string `json:"cols,omitempty"`

	// K and Desc parameterize topk.
	K    int  `json:"k,omitempty"`
	Desc bool `json:"desc,omitempty"`

	// N parameterizes limit.
	N int `json:"n,omitempty"`

	// Right, On and RightOn parameterize join: Right is the build-side
	// subplan, On the left join column, RightOn the right one (defaults
	// to On).
	Right   *Plan  `json:"right,omitempty"`
	On      string `json:"on,omitempty"`
	RightOn string `json:"right_on,omitempty"`
}

// Env is everything a plan executes against: the tracker's current
// published snapshot, the previously published one (for compare sources),
// and an optional ID→name resolver for the "names" operator.
type Env struct {
	Current  *sim.Snapshot
	Previous *sim.Snapshot
	Name     func(uint32) (string, bool)
}

// Open compiles the plan against env into a lazy Relation. Compilation
// validates sources, operator names, column references and comparison
// operators; no rows flow until the caller pulls.
func (p *Plan) Open(env Env) (Relation, error) {
	if env.Current == nil {
		return nil, fmt.Errorf("query: no snapshot to query")
	}
	var rel Relation
	switch {
	case p.Scan != "" && p.Compare != "":
		return nil, fmt.Errorf("query: plan sets both scan %q and compare %q", p.Scan, p.Compare)
	case p.Scan != "":
		switch p.Scan {
		case "seeds":
			rel = ScanSeeds(env.Current)
		case "checkpoints":
			rel = ScanCheckpoints(env.Current)
		case "influence":
			rel = ScanInfluence(env.Current)
		default:
			return nil, fmt.Errorf("query: unknown scan %q (want seeds, checkpoints or influence)", p.Scan)
		}
	case p.Compare != "":
		prev := env.Previous
		if prev == nil {
			// No earlier snapshot published yet: compare the current
			// snapshot against itself, an all-"kept" diff.
			prev = env.Current
		}
		switch p.Compare {
		case "seeds":
			rel = CompareSeeds(prev, env.Current)
		case "checkpoints":
			rel = CompareCheckpoints(prev, env.Current)
		default:
			return nil, fmt.Errorf("query: unknown compare %q (want seeds or checkpoints)", p.Compare)
		}
	default:
		return nil, fmt.Errorf("query: plan needs a scan or compare source")
	}
	return p.Over(rel, env)
}

// Over applies the plan's operator chain to rel in place of the plan's own
// source: what Open does once it has opened that source, and what a router
// does to re-run a plan's trailing operators over its shards' merged rows.
func (p *Plan) Over(rel Relation, env Env) (Relation, error) {
	for i, op := range p.Ops {
		var err error
		rel, err = applyOp(rel, op, env)
		if err != nil {
			return nil, fmt.Errorf("query: op %d: %w", i, err)
		}
	}
	return rel, nil
}

func applyOp(in Relation, op Op, env Env) (Relation, error) {
	switch op.Op {
	case "filter":
		if op.Col == "" || op.Value == nil {
			return nil, fmt.Errorf("filter needs col and value")
		}
		c := in.Schema().Col(op.Col)
		if c < 0 {
			return nil, fmt.Errorf("filter: unknown column %q (have %v)", op.Col, []string(in.Schema()))
		}
		pred, err := comparator(op.Cmp, c, *op.Value)
		if err != nil {
			return nil, err
		}
		return Filter(in, pred), nil
	case "project":
		if len(op.Cols) == 0 {
			return nil, fmt.Errorf("project needs cols")
		}
		return Project(in, op.Cols)
	case "join":
		if op.Right == nil || op.On == "" {
			return nil, fmt.Errorf("join needs right and on")
		}
		right, err := op.Right.Open(env)
		if err != nil {
			return nil, fmt.Errorf("join right: %w", err)
		}
		rightOn := op.RightOn
		if rightOn == "" {
			rightOn = op.On
		}
		return Join(in, right, op.On, rightOn)
	case "topk":
		if op.Col == "" {
			return nil, fmt.Errorf("topk needs col")
		}
		return TopK(in, op.Col, op.K, op.Desc)
	case "limit":
		if op.N <= 0 {
			return nil, fmt.Errorf("limit needs positive n, got %d", op.N)
		}
		return Limit(in, op.N), nil
	case "names":
		cols := op.Cols
		if len(cols) == 0 && op.Col != "" {
			cols = []string{op.Col}
		}
		if len(cols) == 0 {
			return nil, fmt.Errorf("names needs cols (or col)")
		}
		return Resolve(in, cols, env.Name)
	default:
		return nil, fmt.Errorf("unknown op %q (want filter, project, join, topk, limit or names)", op.Op)
	}
}

// comparator builds filter's predicate for one of == != < <= > >=.
func comparator(cmp string, col int, rhs Value) (func(Row) bool, error) {
	switch cmp {
	case "==", "": // == is the default comparison
		return func(r Row) bool { return r[col].Compare(rhs) == 0 }, nil
	case "!=":
		return func(r Row) bool { return r[col].Compare(rhs) != 0 }, nil
	case "<":
		return func(r Row) bool { return r[col].Compare(rhs) < 0 }, nil
	case "<=":
		return func(r Row) bool { return r[col].Compare(rhs) <= 0 }, nil
	case ">":
		return func(r Row) bool { return r[col].Compare(rhs) > 0 }, nil
	case ">=":
		return func(r Row) bool { return r[col].Compare(rhs) >= 0 }, nil
	default:
		return nil, fmt.Errorf("filter: unknown cmp %q (want == != < <= > >=)", cmp)
	}
}

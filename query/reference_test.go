package query

import (
	"fmt"
	"sort"
	"strconv"
)

// Materialize evaluates the plan eagerly: every source and every operator
// produces a fully materialized row slice before the next stage runs, joins
// are nested loops, and top-k is a full stable sort followed by a cut. It is
// deliberately an independent implementation of the plan semantics, kept
// beside the tests that use it: the property tests check the lazy pipeline
// against it bit for bit, and BenchmarkQueryTopK uses it as the baseline that
// quantifies what laziness saves.
func (p *Plan) Materialize(env Env) (Schema, []Row, error) {
	if env.Current == nil {
		return nil, nil, fmt.Errorf("query: no snapshot to query")
	}
	schema, rows, err := materializeSource(p, env)
	if err != nil {
		return nil, nil, err
	}
	for i, op := range p.Ops {
		schema, rows, err = materializeOp(schema, rows, op, env)
		if err != nil {
			return nil, nil, fmt.Errorf("query: op %d: %w", i, err)
		}
	}
	return schema, rows, nil
}

func materializeSource(p *Plan, env Env) (Schema, []Row, error) {
	// Sources are shared with the lazy path (they are trivial); drain them
	// into cloned rows.
	rel, err := (&Plan{Scan: p.Scan, Compare: p.Compare}).Open(env)
	if err != nil {
		return nil, nil, err
	}
	rows, _ := Collect(rel, 0)
	return rel.Schema().clone(), rows, nil
}

func materializeOp(schema Schema, rows []Row, op Op, env Env) (Schema, []Row, error) {
	switch op.Op {
	case "filter":
		if op.Col == "" || op.Value == nil {
			return nil, nil, fmt.Errorf("filter needs col and value")
		}
		c := schema.Col(op.Col)
		if c < 0 {
			return nil, nil, fmt.Errorf("filter: unknown column %q (have %v)", op.Col, []string(schema))
		}
		pred, err := comparator(op.Cmp, c, *op.Value)
		if err != nil {
			return nil, nil, err
		}
		var out []Row
		for _, r := range rows {
			if pred(r) {
				out = append(out, r)
			}
		}
		return schema, out, nil

	case "project":
		if len(op.Cols) == 0 {
			return nil, nil, fmt.Errorf("project needs cols")
		}
		idx := make([]int, len(op.Cols))
		for i, c := range op.Cols {
			j := schema.Col(c)
			if j < 0 {
				return nil, nil, fmt.Errorf("query: project: unknown column %q (have %v)", c, []string(schema))
			}
			idx[i] = j
		}
		out := make([]Row, len(rows))
		for i, r := range rows {
			nr := make(Row, len(idx))
			for k, j := range idx {
				nr[k] = r[j]
			}
			out[i] = nr
		}
		return Schema(op.Cols).clone(), out, nil

	case "join":
		if op.Right == nil || op.On == "" {
			return nil, nil, fmt.Errorf("join needs right and on")
		}
		rightSchema, rightRows, err := op.Right.Materialize(env)
		if err != nil {
			return nil, nil, fmt.Errorf("join right: %w", err)
		}
		rightOn := op.RightOn
		if rightOn == "" {
			rightOn = op.On
		}
		lc := schema.Col(op.On)
		if lc < 0 {
			return nil, nil, fmt.Errorf("query: join: unknown left column %q (have %v)", op.On, []string(schema))
		}
		rc := rightSchema.Col(rightOn)
		if rc < 0 {
			return nil, nil, fmt.Errorf("query: join: unknown right column %q (have %v)", rightOn, []string(rightSchema))
		}
		outSchema := schema.clone()
		for i, c := range rightSchema {
			if i == rc {
				continue
			}
			if outSchema.Col(c) >= 0 {
				c = "right_" + c
			}
			outSchema = append(outSchema, c)
		}
		var out []Row
		for _, l := range rows { // nested loop, left order then right order
			for _, r := range rightRows {
				if !l[lc].key().Equal(r[rc].key()) {
					continue
				}
				nr := make(Row, 0, len(outSchema))
				nr = append(nr, l...)
				for i, v := range r {
					if i != rc {
						nr = append(nr, v)
					}
				}
				out = append(out, nr)
			}
		}
		return outSchema, out, nil

	case "topk":
		if op.Col == "" {
			return nil, nil, fmt.Errorf("topk needs col")
		}
		c := schema.Col(op.Col)
		if c < 0 {
			return nil, nil, fmt.Errorf("query: topk: unknown column %q (have %v)", op.Col, []string(schema))
		}
		if op.K <= 0 {
			return nil, nil, fmt.Errorf("query: topk: k must be positive, got %d", op.K)
		}
		sorted := append([]Row{}, rows...)
		sort.SliceStable(sorted, func(a, b int) bool {
			cmp := sorted[a][c].Compare(sorted[b][c])
			if op.Desc {
				return cmp > 0
			}
			return cmp < 0
		})
		if len(sorted) > op.K {
			sorted = sorted[:op.K]
		}
		return schema, sorted, nil

	case "limit":
		if op.N <= 0 {
			return nil, nil, fmt.Errorf("limit needs positive n, got %d", op.N)
		}
		if len(rows) > op.N {
			rows = rows[:op.N]
		}
		return schema, rows, nil

	case "names":
		cols := op.Cols
		if len(cols) == 0 && op.Col != "" {
			cols = []string{op.Col}
		}
		if len(cols) == 0 {
			return nil, nil, fmt.Errorf("names needs cols (or col)")
		}
		idx := make([]int, len(cols))
		for i, c := range cols {
			j := schema.Col(c)
			if j < 0 {
				return nil, nil, fmt.Errorf("query: names: unknown column %q (have %v)", c, []string(schema))
			}
			idx[i] = j
		}
		out := make([]Row, len(rows))
		for i, r := range rows {
			nr := r.Clone()
			for _, j := range idx {
				if nr[j].Kind() != Int {
					continue
				}
				id := nr[j].Int()
				resolved := false
				if env.Name != nil && id >= 0 && id <= int64(^uint32(0)) {
					if n, ok := env.Name(uint32(id)); ok {
						nr[j] = StringValue(n)
						resolved = true
					}
				}
				if !resolved {
					nr[j] = StringValue(strconv.FormatInt(id, 10))
				}
			}
			out[i] = nr
		}
		return schema, out, nil

	default:
		return nil, nil, fmt.Errorf("unknown op %q (want filter, project, join, topk, limit or names)", op.Op)
	}
}

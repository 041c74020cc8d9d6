package main

import (
	"fmt"
	"slices"

	"coradd/internal/query"
	"coradd/internal/value"
)

// bind returns a copy of template q named name with every predicate's
// literals redrawn by draw(column), keeping the predicate's shape: an
// equality gets a new value, a range keeps its width from a new low end,
// and an IN list keeps its size. The copy reads the same columns, so any
// plan chosen for the template still applies to it.
func bind(q *query.Query, name string, draw func(col string) value.V) *query.Query {
	b := *q
	b.Name = name
	b.Predicates = make([]query.Predicate, len(q.Predicates))
	for i, p := range q.Predicates {
		switch p.Op {
		case query.Eq:
			b.Predicates[i] = query.NewEq(p.Col, draw(p.Col))
		case query.Range:
			lo := draw(p.Col)
			b.Predicates[i] = query.NewRange(p.Col, lo, lo+(p.Hi-p.Lo))
		case query.In:
			b.Predicates[i] = query.NewIn(p.Col, drawSet(p.Col, p.Set, draw)...)
		default:
			panic(fmt.Sprintf("perfbench: predicate op %v", p.Op))
		}
	}
	b.Targets = slices.Clone(q.Targets)
	return &b
}

// drawSet draws len(orig) distinct values, topping up from orig when the
// column has too few distinct values to draw from.
func drawSet(col string, orig []value.V, draw func(string) value.V) []value.V {
	seen := map[value.V]bool{}
	var out []value.V
	for try := 0; try < 8*len(orig) && len(out) < len(orig); try++ {
		if v := draw(col); !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	for _, v := range orig {
		if len(out) == len(orig) {
			break
		}
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

package check

import (
	"fmt"
	"math"

	"repro/internal/optimizer"
	"repro/internal/qtree"
)

// Plan statically verifies a physical plan: every operator has its inputs,
// hash join keys agree in arity, set-operation inputs agree in
// arity, every subquery expression left in the tree has a compiled
// subplan, every column an expression references is produced by the
// operator's inputs (or supplied by correlation), and cost estimates are
// finite and non-negative. Like Query, it never panics on malformed input.
func Plan(p *optimizer.Plan) Violations {
	if p == nil {
		return Violations{&Violation{Class: ClassPlan, Detail: "nil plan"}}
	}
	c := &planChecker{plan: p}
	if p.Root == nil {
		c.add(&Violation{Class: ClassPlan, Detail: "plan has no root operator"})
		return c.vs
	}
	c.checkCost("plan", p.Cost)
	c.node(p.Root, map[optimizer.ColID]bool{})
	for sq, sp := range p.Subplans {
		if sq == nil {
			c.add(&Violation{Class: ClassPlan, Detail: "subplan keyed by a nil subquery expression"})
			continue
		}
		if sp == nil || sp.Root == nil {
			c.add(&Violation{Class: ClassPlan,
				Detail: fmt.Sprintf("%s subquery has an empty subplan", sq.Kind)})
			continue
		}
		ambient := map[optimizer.ColID]bool{}
		for _, id := range sp.Correlated {
			ambient[id] = true
		}
		c.node(sp.Root, ambient)
	}
	return c.vs
}

// planChecker accumulates violations while walking one plan.
type planChecker struct {
	plan *optimizer.Plan
	vs   Violations
	// visited guards against operator DAGs/cycles left by a broken
	// planner (each operator must appear in exactly one tree position).
	visited map[optimizer.PlanNode]bool
}

func (c *planChecker) add(v *Violation) { c.vs = append(c.vs, v) }

func (c *planChecker) violate(format string, args ...any) {
	c.add(&Violation{Class: ClassPlan, Detail: fmt.Sprintf(format, args...)})
}

// checkCost flags negative, NaN or (for totals) infinite estimates.
func (c *planChecker) checkCost(label string, cost optimizer.Cost) {
	if math.IsNaN(cost.Total) || math.IsInf(cost.Total, 0) || cost.Total < 0 {
		c.violate("%s has an invalid total cost %v", label, cost.Total)
	}
	if math.IsNaN(cost.Rows) || math.IsInf(cost.Rows, 0) || cost.Rows < 0 {
		c.violate("%s has an invalid row estimate %v", label, cost.Rows)
	}
}

// node verifies one operator subtree. ambient is the set of columns
// supplied from outside the subtree: correlation parameters of a subplan,
// or the left side of a nested-loops / lateral join for its right side.
func (c *planChecker) node(n optimizer.PlanNode, ambient map[optimizer.ColID]bool) {
	if n == nil {
		c.violate("nil operator")
		return
	}
	if c.visited == nil {
		c.visited = map[optimizer.PlanNode]bool{}
	}
	if c.visited[n] {
		c.violate("operator %s appears in more than one plan position", n.Label())
		return
	}
	c.visited[n] = true
	c.checkCost(n.Label(), n.Cost())

	avail := func(nodes ...optimizer.PlanNode) map[optimizer.ColID]bool {
		out := make(map[optimizer.ColID]bool, len(ambient))
		for id := range ambient {
			out[id] = true
		}
		for _, ch := range nodes {
			if ch != nil {
				for _, id := range ch.Columns() {
					out[id] = true
				}
			}
		}
		return out
	}
	self := avail(n) // the node's own outputs plus ambient (for scans)

	switch v := n.(type) {
	case *optimizer.SeqScan:
		if v.Table == nil {
			c.violate("SeqScan without a table")
			return
		}
		c.exprs(n, self, v.Filter...)
	case *optimizer.IndexScan:
		if v.Table == nil || v.Index == nil {
			c.violate("IndexScan without a table or index")
			return
		}
		c.exprs(n, self, v.EqKeys...)
		c.exprs(n, self, v.Lo, v.Hi)
		c.exprs(n, self, v.Filter...)
	case *optimizer.Filter:
		c.exprs(n, avail(v.Child), v.Preds...)
		c.node(v.Child, ambient)
	case *optimizer.Join:
		if v.L == nil || v.R == nil {
			c.violate("%s has a nil input", n.Label())
			return
		}
		if len(v.EqL) != len(v.EqR) {
			c.violate("%s has %d left keys but %d right keys", n.Label(), len(v.EqL), len(v.EqR))
		}
		if len(v.NullSafeEq) > len(v.EqL) {
			c.violate("%s has %d null-safe flags for %d keys", n.Label(), len(v.NullSafeEq), len(v.EqL))
		}
		c.exprs(n, avail(v.L), v.EqL...)
		rightAmbient := ambient
		if v.RLateral || v.Method == optimizer.MethodNL {
			// The right side of a nested-loops join re-evaluates per left
			// row; its probe keys and lateral body read left columns.
			rightAmbient = avail(v.L)
		}
		rSelf := make(map[optimizer.ColID]bool, len(rightAmbient))
		for id := range rightAmbient {
			rSelf[id] = true
		}
		for _, id := range v.R.Columns() {
			rSelf[id] = true
		}
		c.exprs(n, rSelf, v.EqR...)
		c.exprs(n, avail(v.L, v.R), v.On...)
		c.node(v.L, ambient)
		c.node(v.R, rightAmbient)
	case *optimizer.Agg:
		in := avail(v.Child)
		c.exprs(n, in, v.GroupBy...)
		for _, a := range v.Aggs {
			if a.Arg != nil {
				c.exprs(n, in, a.Arg)
			}
		}
		for si, set := range v.GroupingSets {
			for _, idx := range set {
				if idx < 0 || idx >= len(v.GroupBy) {
					c.violate("Aggregate grouping set %d index %d out of range (%d grouping keys)", si, idx, len(v.GroupBy))
				}
			}
		}
		c.node(v.Child, ambient)
	case *optimizer.Window:
		in := avail(v.Child)
		for _, w := range v.Funcs {
			if w == nil {
				c.violate("Window with a nil function")
				continue
			}
			if w.Arg != nil {
				c.exprs(n, in, w.Arg)
			}
			c.exprs(n, in, w.PartitionBy...)
			for _, o := range w.OrderBy {
				c.exprs(n, in, o.Expr)
			}
		}
		c.node(v.Child, ambient)
	case *optimizer.Project:
		if len(n.Columns()) != len(v.Exprs) {
			c.violate("Project outputs %d columns from %d expressions", len(n.Columns()), len(v.Exprs))
		}
		c.exprs(n, avail(v.Child), v.Exprs...)
		c.node(v.Child, ambient)
	case *optimizer.Distinct:
		c.node(v.Child, ambient)
	case *optimizer.Sort:
		if len(v.Desc) != len(v.Keys) {
			c.violate("Sort has %d directions for %d keys", len(v.Desc), len(v.Keys))
		}
		c.exprs(n, avail(v.Child), v.Keys...)
		c.node(v.Child, ambient)
	case *optimizer.Limit:
		if v.N < 0 {
			c.violate("Limit with negative count %d", v.N)
		}
		c.node(v.Child, ambient)
	case *optimizer.SetNode:
		if len(v.Inputs) < 2 {
			c.violate("%s has %d inputs; at least 2 are required", n.Label(), len(v.Inputs))
		}
		arity := -1
		for i, in := range v.Inputs {
			if in == nil {
				c.violate("%s input %d is nil", n.Label(), i)
				continue
			}
			if arity < 0 {
				arity = len(in.Columns())
			} else if len(in.Columns()) != arity {
				c.violate("%s input %d has %d columns; input 0 has %d", n.Label(), i, len(in.Columns()), arity)
			}
			c.node(in, ambient)
		}
	default:
		if optimizer.IsCostStub(n) {
			// A cost-annotation stub is an opaque leaf: it declares its
			// output columns and cost (both checked above) but has no inputs
			// to verify.
			return
		}
		c.violate("unknown operator %T", n)
		for _, ch := range n.Children() {
			c.node(ch, ambient)
		}
	}
}

// exprs verifies expressions attached to one operator: every column they
// reference must be available, and every subquery expression must have a
// compiled subplan.
func (c *planChecker) exprs(n optimizer.PlanNode, avail map[optimizer.ColID]bool, es ...qtree.Expr) {
	for _, e := range es {
		if e == nil {
			continue // optional slots (Lo/Hi); nil conjuncts are caught at the query level
		}
		qtree.WalkExpr(e, func(x qtree.Expr) bool {
			switch v := x.(type) {
			case *qtree.Col:
				if !avail[optimizer.ColID{From: v.From, Ord: v.Ord}] {
					c.violate("%s references column q%d.#%d, which none of its inputs produce",
						n.Label(), v.From, v.Ord)
				}
			case *qtree.Subq:
				if c.plan.Subplans[v] == nil {
					c.violate("%s carries a %s subquery with no compiled subplan", n.Label(), v.Kind)
				}
				return false
			}
			return true
		})
	}
}

package optimizer

import (
	"math"
	"slices"

	"repro/internal/qtree"
)

// compileSubq plans the block of a subquery expression and registers the
// SubPlan. Correlated references into the current block's relations (known
// to es) determine the effective number of executions under tuple iteration
// semantics with caching: distinct parameter combinations, capped by the
// number of outer rows. The SubPlan lists every outer reference, those into
// blocks further out too.
func (p *Planner) compileSubq(q *qtree.Query, s *qtree.Subq, es *estimator, outerRows float64, plan *Plan) (*SubPlan, error) {
	if sp, ok := plan.Subplans[s]; ok {
		return sp, nil
	}
	outFrom := p.newFromID()
	node, _, err := p.planBlock(q, s.Block, outFrom, plan)
	if err != nil {
		return nil, err
	}
	sp := &SubPlan{Root: node, PerExec: node.Cost().Total}

	var distinct float64
	sp.Correlated, distinct = outerBindings(s.Block, es)
	if len(sp.Correlated) == 0 {
		// Uncorrelated subquery: executed once.
		sp.EffectiveExecs = 1
	} else {
		sp.EffectiveExecs = math.Max(math.Min(distinct, math.Max(outerRows, 1)), 1)
	}
	plan.Subplans[s] = sp
	return sp, nil
}

// outerBindings returns b's outer references (qtree OuterCols), each
// distinct column once, and the product of the NDVs of those into relations
// known to es (the current block): the distinct correlation bindings. A
// reference to a block further out is listed but stays out of the product;
// it is fixed while the current block runs.
func outerBindings(b *qtree.Block, es *estimator) (cols []ColID, ndv float64) {
	ndv = 1
	b.OuterCols(func(c *qtree.Col) {
		id := ColID{From: c.From, Ord: c.Ord}
		if slices.Contains(cols, id) {
			return
		}
		cols = append(cols, id)
		if ci, ok := es.col(c); ok { // not for a block further out
			ndv *= math.Max(ci.ndv, 1)
		}
	})
	return cols, ndv
}

// buildSubqFilter builds the Filter node applying predicates that contain
// subqueries (and residual parameter predicates), costing subquery
// execution under TIS with caching.
func (p *Planner) buildSubqFilter(q *qtree.Query, child PlanNode, preds []qtree.Expr, es *estimator, plan *Plan) (PlanNode, error) {
	inRows := child.Cost().Rows
	total := child.Cost().Total
	for _, pred := range preds {
		total += inRows * cpuEvalCost
		total += inRows * expensiveEvalCost(pred)
		var err error
		qtree.WalkExpr(pred, func(x qtree.Expr) bool {
			if err != nil {
				return false
			}
			if s, ok := x.(*qtree.Subq); ok {
				sp, cerr := p.compileSubq(q, s, es, inRows, plan)
				if cerr != nil {
					err = cerr
					return false
				}
				execs := math.Min(sp.EffectiveExecs, math.Max(inRows, 1))
				total += execs*sp.PerExec + inRows*subqCacheProbe
			}
			return true // into a subquery's left operands, which may hold one too
		})
		if err != nil {
			return nil, err
		}
	}
	f := &Filter{Child: child, Preds: preds}
	f.cols = child.Columns()
	f.cost = Cost{
		Total: total,
		Rows:  math.Max(inRows*es.selectivityAll(preds), 1e-3),
	}
	if err := p.checkCutoff(f.cost.Total); err != nil {
		return nil, err
	}
	return f, nil
}

// compileExprSubplans compiles subplans for subqueries appearing in a
// non-filter expression (select list, non-inner join condition). Their
// execution cost is not charged to the plan.
func (p *Planner) compileExprSubplans(q *qtree.Query, e qtree.Expr, es *estimator, plan *Plan) error {
	var err error
	qtree.WalkExpr(e, func(x qtree.Expr) bool {
		if err != nil {
			return false
		}
		if s, ok := x.(*qtree.Subq); ok {
			_, err = p.compileSubq(q, s, es, 1, plan)
		}
		return err == nil
	})
	return err
}

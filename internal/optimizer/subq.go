package optimizer

import (
	"math"

	"repro/internal/qtree"
)

// compileSubq plans the block of a subquery expression and registers the
// SubPlan. Correlated references into the current block's relations (known
// to es) determine the effective number of executions under tuple iteration
// semantics with caching: distinct parameter combinations, capped by the
// number of outer rows.
func (p *Planner) compileSubq(q *qtree.Query, s *qtree.Subq, es *estimator, outerRows float64, plan *Plan) (*SubPlan, error) {
	if sp, ok := plan.Subplans[s]; ok {
		return sp, nil
	}
	outFrom := q.NewFromID()
	node, _, err := p.planBlock(q, s.Block, outFrom, plan)
	if err != nil {
		return nil, err
	}
	sp := &SubPlan{Root: node, PerExec: node.Cost().Total}

	// Distinct correlation bindings: product of NDVs of the outer columns
	// referenced by the subquery that belong to relations in scope.
	distinct := 1.0
	correlated := false
	for id := range s.Block.OuterRefs() {
		if ri, ok := es.rels[id]; ok {
			correlated = true
			// Without knowing which column, assume a key-like domain.
			_ = ri
		}
	}
	// Refine using actual column references.
	refCols := collectOuterCols(s.Block, es)
	for _, c := range refCols {
		sp.Correlated = append(sp.Correlated, ColID{From: c.From, Ord: c.Ord})
		if ci, ok := es.col(c); ok {
			distinct *= math.Max(ci.ndv, 1)
			correlated = true
		}
	}
	if !correlated {
		// Uncorrelated subquery: executed once.
		sp.EffectiveExecs = 1
	} else {
		sp.EffectiveExecs = math.Max(math.Min(distinct, math.Max(outerRows, 1)), 1)
	}
	plan.Subplans[s] = sp
	return sp, nil
}

// collectOuterCols returns the column references inside block b (at any
// depth) that refer to relations known to es (i.e. the current block).
func collectOuterCols(b *qtree.Block, es *estimator) []*qtree.Col {
	var out []*qtree.Col
	seen := map[ColID]bool{}
	var walkBlock func(blk *qtree.Block)
	walkBlock = func(blk *qtree.Block) {
		blk.VisitExprs(func(e qtree.Expr) {
			switch v := e.(type) {
			case *qtree.Col:
				if _, ok := es.rels[v.From]; ok {
					id := ColID{From: v.From, Ord: v.Ord}
					if !seen[id] {
						seen[id] = true
						out = append(out, v)
					}
				}
			case *qtree.Subq:
				walkBlock(v.Block)
			}
		})
		for _, f := range blk.From {
			if f.View != nil {
				walkBlock(f.View)
			}
		}
		if blk.Set != nil {
			for _, c := range blk.Set.Children {
				walkBlock(c)
			}
		}
	}
	walkBlock(b)
	return out
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
				return false
			}
			return true
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
			return false
		}
		return true
	})
	return err
}

package optimizer

import (
	"math"

	"repro/internal/qtree"
)

// buildAgg plans the aggregation step of a grouped block: it collects the
// distinct aggregate functions from the select list / HAVING / ORDER BY,
// builds the Agg node, and rewrites those expressions to reference the
// aggregate output columns.
func (p *Planner) buildAgg(
	b *qtree.Block,
	child PlanNode,
	es *estimator,
	selExprs, havingPreds, orderExprs []qtree.Expr,
) (PlanNode, []qtree.Expr, []qtree.Expr, []qtree.Expr, error) {
	// Collect distinct aggregates across all consuming clauses.
	var aggs []*qtree.Agg
	collect := func(e qtree.Expr) {
		qtree.WalkExpr(e, func(x qtree.Expr) bool {
			if a, ok := x.(*qtree.Agg); ok {
				if qtree.IndexOf(aggs, a) < 0 {
					aggs = append(aggs, a)
				}
				return false
			}
			return true
		})
	}
	for _, e := range selExprs {
		collect(e)
	}
	for _, e := range havingPreds {
		collect(e)
	}
	for _, e := range orderExprs {
		collect(e)
	}
	specs := make([]AggSpec, len(aggs))
	for i, a := range aggs {
		specs[i] = AggSpec{Op: a.Op, Arg: a.Arg, Star: a.Star, Distinct: a.Distinct}
	}

	outFrom := p.newFromID()
	agg := &Agg{
		Child:        child,
		GroupBy:      b.GroupBy,
		GroupingSets: b.GroupingSets,
		Aggs:         specs,
		OutFrom:      outFrom,
	}
	nGB := len(b.GroupBy)
	agg.cols = outputCols(outFrom, nGB+len(specs))

	// Cardinality: product of grouping-column NDVs capped by input rows.
	inRows := child.Cost().Rows
	groups := 1.0
	for _, g := range b.GroupBy {
		groups *= math.Max(es.ndv(g), 1)
		if groups > inRows {
			groups = math.Max(inRows, 1)
			break
		}
	}
	if nGB == 0 {
		groups = 1
	}
	sets := 1.0
	if b.GroupingSets != nil {
		sets = float64(len(b.GroupingSets))
		// Each set produces at most its own group count; approximate with
		// a diminishing series.
		groups = math.Min(groups*1.5, inRows*sets)
	}
	total := child.Cost().Total + inRows*sets*(aggRowCost+float64(len(specs))*aggFnCost)
	agg.cost = Cost{Total: total, Rows: math.Max(groups, 1)}

	// Register the aggregate output in the estimator.
	ndvs := make([]float64, nGB+len(specs))
	for i, g := range b.GroupBy {
		ndvs[i] = math.Min(es.ndv(g), agg.cost.Rows)
	}
	for j := range specs {
		ndvs[nGB+j] = agg.cost.Rows
	}
	es.addDerived(outFrom, agg.cost.Rows, ndvs)

	// Rewrite consumers to reference the aggregate output. A subquery
	// correlated on a grouping column reads it from that output too: the
	// plan compiles a copy of its block with those references bound to the
	// grouping outputs (the query itself is not written).
	grouping := func(x qtree.Expr) qtree.Expr {
		if i := qtree.IndexOf(b.GroupBy, x); i >= 0 {
			return &qtree.Col{From: outFrom, Ord: i, Name: "GRP"}
		}
		return nil
	}
	var consumer func(x qtree.Expr) qtree.Expr
	consumer = func(x qtree.Expr) qtree.Expr {
		if a, ok := x.(*qtree.Agg); ok {
			if j := qtree.IndexOf(aggs, a); j >= 0 {
				return &qtree.Col{From: outFrom, Ord: nGB + j, Name: "AGG"}
			}
		}
		if s, ok := x.(*qtree.Subq); ok && correlatedOn(s.Block, b.GroupBy) {
			return qtree.CopyRewriteSubq(s, consumer, grouping)
		}
		return grouping(x)
	}
	rewrite := func(e qtree.Expr) qtree.Expr { return qtree.RewriteExpr(e, consumer) }
	outSel := make([]qtree.Expr, len(selExprs))
	for i, e := range selExprs {
		outSel[i] = rewrite(e)
	}
	outHaving := make([]qtree.Expr, len(havingPreds))
	for i, e := range havingPreds {
		outHaving[i] = rewrite(e)
	}
	outOrder := make([]qtree.Expr, len(orderExprs))
	for i, e := range orderExprs {
		outOrder[i] = rewrite(e)
	}
	return agg, outSel, outHaving, outOrder, nil
}

// correlatedOn reports whether block b references one of exprs from outside
// its subtree.
func correlatedOn(b *qtree.Block, exprs []qtree.Expr) bool {
	found := false
	b.OuterCols(func(c *qtree.Col) {
		found = found || qtree.IndexOf(exprs, c) >= 0
	})
	return found
}

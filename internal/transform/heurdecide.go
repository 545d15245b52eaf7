package transform

import (
	"repro/internal/qtree"
)

// This file implements the pre-CBQT heuristic decision procedures used when
// a cost-based transformation runs in heuristic mode — the behaviour of
// Oracle releases prior to 10g, which the paper's Section 4.1 experiment
// compares against.

// HeuristicVariant implements the paper's simplified pre-10g unnesting
// heuristic (§2.2.1): "If there exist filter predicates in the outer query
// and there are indexes on the local columns in the subquery correlation,
// then the subquery should not be unnested." Otherwise unnest (plain
// variant, no interleaving — interleaving is a CBQT-era feature).
func (r *UnnestSubquery) HeuristicVariant(q *qtree.Query, o Object) int {
	b, s, err := unnestSite(q, o)
	if err != nil {
		return 0
	}
	if outerHasFilterPreds(b) && correlationIndexed(s.Block) {
		return 0
	}
	return 1
}

// outerHasFilterPreds reports whether the outer block has single-table
// filter predicates (which make TIS cheap by reducing the driving rows).
func outerHasFilterPreds(b *qtree.Block) bool {
	for _, e := range b.Where {
		if qtree.ContainsSubq(e) {
			continue
		}
		// Exactly one from item referenced?
		n := 0
		var only qtree.FromID
		qtree.ExprCols(e, func(c *qtree.Col) {
			if n == 0 || n == 1 && c.From != only {
				n++
				only = c.From
			}
		})
		if n != 1 {
			continue
		}
		// Comparison against a constant?
		if bin, ok := e.(*qtree.Bin); ok && bin.Op.IsComparison() {
			_, lConst := bin.L.(*qtree.Const)
			_, rConst := bin.R.(*qtree.Const)
			if lConst || rConst {
				return true
			}
		}
		if _, ok := e.(*qtree.InList); ok {
			return true
		}
		if _, ok := e.(*qtree.Like); ok {
			return true
		}
	}
	return false
}

// correlationIndexed reports whether some local column of a correlation
// equality predicate in the subquery has an index.
func correlationIndexed(sub *qtree.Block) bool {
	defined := sub.Defined()
	for _, e := range sub.Where {
		in, _, ok := corrPred(e, defined)
		if !ok {
			continue
		}
		c, isCol := in.(*qtree.Col)
		if !isCol {
			continue
		}
		f := sub.FindFrom(c.From)
		if f == nil || !f.IsTable() {
			continue
		}
		if f.Table.FindIndex([]int{c.Ord}) != nil {
			return true
		}
	}
	return false
}

// HeuristicVariant for views: the pre-CBQT behaviour merges group-by and
// distinct views whenever legal (delayed aggregation was considered always
// profitable); JPPD applies only when merging is illegal.
func (r *ViewStrategy) HeuristicVariant(q *qtree.Query, o Object) int {
	return 1 // variant 1 is "merge if legal, otherwise JPPD"
}

// HeuristicVariant for set operations: always convert with duplicates
// removed at the join output.
func (r *SetOpIntoJoin) HeuristicVariant(q *qtree.Query, o Object) int { return 1 }

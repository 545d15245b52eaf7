package transform

import (
	"repro/internal/qtree"
)

// RedundancyPruning implements the "pruning of redundant operations" the
// paper lists among the goals of heuristic transformation (§2.1):
//
//   - DISTINCT elimination: a SELECT DISTINCT whose output includes a
//     unique key (or rowid) of every joined relation cannot produce
//     duplicates, so the distinct operator is dropped;
//   - ORDER BY elimination inside views: ordering a view that is not under
//     a row limit has no observable effect, so the sort is dropped.
type RedundancyPruning struct{}

// Name implements HeuristicRule.
func (*RedundancyPruning) Name() string { return "redundancy pruning" }

// Visit implements HeuristicRule.
func (*RedundancyPruning) Visit(q *qtree.Query, b *qtree.Block) (bool, error) {
	changed := false
	if pruneDistinct(q, b) {
		changed = true
		b = q.Resolve(b)
	}
	for _, f := range b.From {
		if f.View != nil && pruneViewOrder(q, b, f.View) {
			changed = true
		}
	}
	return changed, nil
}

// pruneDistinct drops DISTINCT when the select list functionally
// determines whole rows: it contains a unique key of every from item.
func pruneDistinct(q *qtree.Query, b *qtree.Block) bool {
	if !b.Distinct || b.IsSetOp() || b.HasGroupBy() || len(b.From) == 0 {
		return false
	}
	// Collect the plain columns in the select list per from item.
	colsByItem := map[qtree.FromID][]int{}
	for _, it := range b.Select {
		if c, ok := it.Expr.(*qtree.Col); ok {
			colsByItem[c.From] = append(colsByItem[c.From], c.Ord)
		}
	}
	for _, f := range b.From {
		switch f.Kind {
		case qtree.JoinSemi, qtree.JoinAnti, qtree.JoinNullAwareAnti:
			continue // contributes no output columns: rows stay a subset
		case qtree.JoinLeftOuter, qtree.JoinFullOuter:
			// Outer joins pad with NULL rows a key cannot disambiguate.
			return false
		}
		if !f.IsTable() {
			return false // views lack key metadata
		}
		ords := colsByItem[f.ID]
		unique := false
		for _, o := range ords {
			if o == f.Table.RowidOrdinal() {
				unique = true
			}
		}
		if !unique && !f.Table.IsUniqueKey(ords) {
			return false
		}
	}
	b = q.Mutable(b)
	b.Distinct = false
	return true
}

// pruneViewOrder removes a view's ORDER BY when nothing can observe it:
// the view itself has no row limit and the containing block has none
// either (a ROWNUM-limited outer block observes arrival order, the Q16
// top-k pattern).
func pruneViewOrder(q *qtree.Query, outer *qtree.Block, v *qtree.Block) bool {
	if len(v.OrderBy) == 0 || v.Limit > 0 || outer.Limit > 0 {
		return false
	}
	v = q.Mutable(v)
	v.OrderBy = nil
	return true
}

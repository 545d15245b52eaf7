package transform

import (
	"fmt"

	"repro/internal/qtree"
)

// SPJViewMerge merges simple select-project-join views into their
// containing block (§2.1 "minimizing the number of query blocks"): the
// view's from items and predicates are spliced into the outer block and
// references to the view's outputs are replaced by the underlying
// expressions. Applied imperatively.
type SPJViewMerge struct{}

// Name implements HeuristicRule.
func (*SPJViewMerge) Name() string { return "spj view merging" }

// Visit implements HeuristicRule.
func (*SPJViewMerge) Visit(q *qtree.Query, b *qtree.Block) (bool, error) {
	changed := false
	for {
		// A merge materializes b under copy-on-write; follow the
		// forwarding map.
		b = q.Resolve(b)
		merged := false
		for _, f := range b.From {
			if canMergeSPJ(b, f) {
				mergeSPJView(q, b, f)
				merged = true
				changed = true
				break // from list changed; rescan
			}
		}
		if !merged {
			return changed, nil
		}
	}
}

func canMergeSPJ(b *qtree.Block, f *qtree.FromItem) bool {
	if f.View == nil || f.Kind != qtree.JoinInner || f.Lateral {
		return false
	}
	v := f.View
	if !isPlainSPJ(v) || v.HasWindowFuncs() {
		return false
	}
	// A correlated view (none in our dialect outside JPPD) or one exposing
	// grouped expressions cannot occur here; subqueries in the view's WHERE
	// are fine — they splice as filter conjuncts.
	return true
}

// mergeSPJView splices view f into b.
func mergeSPJView(q *qtree.Query, b *qtree.Block, f *qtree.FromItem) {
	// The merge rewrites expressions throughout b's subtree and splices the
	// view body into b, so the subtree must be private under copy-on-write;
	// the view item is re-located in the materialized block.
	b = q.MutableDeep(q.Resolve(b))
	f = b.FindFrom(f.ID)
	v := f.View
	// Replace references to the view's outputs everywhere in b's subtree.
	substituteView(b, f.ID, func(ord int) qtree.Expr {
		return qtree.CloneExpr(q, v.Select[ord].Expr)
	})
	// Splice from items and predicates; a view conjunct the substituted
	// outer block already holds is not added twice.
	removeFromItem(b, f.ID)
	b.From = append(b.From, v.From...)
	b.Where = appendNew(b.Where, v.Where...)
}

// JoinElimination removes provably redundant joins (§2.1.2): an inner join
// to a parent table over a complete foreign key (Q4), and a left outer
// join whose join keys are unique on the right (Q5), provided no other part
// of the query references the eliminated table.
type JoinElimination struct{}

// Name implements HeuristicRule.
func (*JoinElimination) Name() string { return "join elimination" }

// Visit implements HeuristicRule.
func (*JoinElimination) Visit(q *qtree.Query, b *qtree.Block) (bool, error) {
	changed := false
	for eliminateOne(q, b) {
		changed = true
	}
	return changed, nil
}

func eliminateOne(q *qtree.Query, b *qtree.Block) bool {
	b = q.Resolve(b)
	for _, t := range b.From {
		if !t.IsTable() {
			continue
		}
		switch t.Kind {
		case qtree.JoinInner:
			if eliminateFKJoin(q, b, t) {
				return true
			}
		case qtree.JoinLeftOuter:
			if eliminateUniqueOuter(q, b, t) {
				return true
			}
		}
	}
	return false
}

// referencedOutside reports whether item id is referenced in the block
// subtree outside the given conjunct indexes of b.Where.
func referencedOutside(b *qtree.Block, id qtree.FromID, exceptWhere map[int]bool) bool {
	for _, it := range b.Select {
		if refersTo(it.Expr, id) {
			return true
		}
	}
	for _, fi := range b.From {
		if fi.ID == id {
			continue
		}
		for _, c := range fi.Cond {
			if refersTo(c, id) {
				return true
			}
		}
		if fi.View != nil && blockRefersTo(fi.View, id) {
			return true
		}
	}
	for i, e := range b.Where {
		if !exceptWhere[i] && refersTo(e, id) {
			return true
		}
	}
	for _, e := range b.GroupBy {
		if refersTo(e, id) {
			return true
		}
	}
	for _, e := range b.Having {
		if refersTo(e, id) {
			return true
		}
	}
	for _, o := range b.OrderBy {
		if refersTo(o.Expr, id) {
			return true
		}
	}
	return false
}

// eliminateFKJoin removes parent table t when a child table's complete
// foreign key equates to t's referenced key and t is otherwise unused.
func eliminateFKJoin(q *qtree.Query, b *qtree.Block, t *qtree.FromItem) bool {
	for _, c := range b.From {
		if c == t || !c.IsTable() || c.Kind != qtree.JoinInner {
			continue
		}
		fk := q.Catalog.FKFromTo(c.Table, t.Table)
		if fk == nil {
			continue
		}
		// The referenced columns must be a key of t.
		if !t.Table.IsUniqueKey(fk.RefCols) {
			continue
		}
		// Find conjuncts c.fkCol = t.refCol for every FK column.
		matched := map[int]bool{} // where-index set
		var fkChildCols []int
		okAll := true
		for k := range fk.Cols {
			found := false
			for wi, e := range b.Where {
				if matched[wi] {
					continue
				}
				l, r, ok := eqConjunct(e)
				if !ok {
					continue
				}
				if l.From == c.ID && l.Ord == fk.Cols[k] && r.From == t.ID && r.Ord == fk.RefCols[k] ||
					r.From == c.ID && r.Ord == fk.Cols[k] && l.From == t.ID && l.Ord == fk.RefCols[k] {
					matched[wi] = true
					fkChildCols = append(fkChildCols, fk.Cols[k])
					found = true
					break
				}
			}
			if !found {
				okAll = false
				break
			}
		}
		if !okAll {
			continue
		}
		if referencedOutside(b, t.ID, matched) {
			continue
		}
		// Eliminate: drop the join conjuncts and the table; add NOT NULL
		// filters for nullable FK columns (Q4 -> Q6 with the null guard).
		// Only b itself is mutated, so a shallow materialization suffices;
		// matched where-indexes stay valid because the copy preserves slice
		// order.
		b = q.Mutable(b)
		var keep []qtree.Expr
		for wi, e := range b.Where {
			if !matched[wi] {
				keep = append(keep, e)
			}
		}
		b.Where = keep
		for _, ord := range fkChildCols {
			if c.Table.Cols[ord].Nullable {
				b.Where = append(b.Where, &qtree.IsNull{
					E:   &qtree.Col{From: c.ID, Ord: ord, Name: c.Table.Cols[ord].Name},
					Neg: true,
				})
			}
		}
		removeFromItem(b, t.ID)
		return true
	}
	return false
}

// eliminateUniqueOuter removes a left-outer-joined table whose join
// condition equates a unique key of the table and which is otherwise
// unreferenced (Q5 -> Q6).
func eliminateUniqueOuter(q *qtree.Query, b *qtree.Block, t *qtree.FromItem) bool {
	var keyOrds []int
	for _, cond := range t.Cond {
		l, r, ok := eqConjunct(cond)
		if !ok {
			return false
		}
		switch {
		case l.From == t.ID && r.From != t.ID:
			keyOrds = append(keyOrds, l.Ord)
		case r.From == t.ID && l.From != t.ID:
			keyOrds = append(keyOrds, r.Ord)
		default:
			return false
		}
	}
	if !t.Table.IsUniqueKey(keyOrds) {
		return false
	}
	if referencedOutside(b, t.ID, nil) {
		return false
	}
	b = q.Mutable(b)
	removeFromItem(b, t.ID)
	return true
}

// UnnestMerge is the imperative flavour of subquery unnesting (§2.1.1):
// single-table EXISTS/IN subqueries merge into the outer block as a
// semijoin; single-table NOT EXISTS merges as an antijoin; single-table
// NOT IN merges as a null-aware antijoin (or a plain antijoin when the
// connecting columns are provably non-null).
type UnnestMerge struct{}

// Name implements HeuristicRule.
func (*UnnestMerge) Name() string { return "subquery unnesting (merge)" }

// Visit implements HeuristicRule.
func (*UnnestMerge) Visit(q *qtree.Query, b *qtree.Block) (bool, error) {
	changed := false
	for unnestMergeOne(q, b) {
		changed = true
	}
	return changed, nil
}

func unnestMergeOne(q *qtree.Query, b *qtree.Block) bool {
	b = q.Resolve(b)
	if b.IsSetOp() {
		return false
	}
	for wi, e := range b.Where {
		s, ok := e.(*qtree.Subq)
		if !ok {
			continue
		}
		if !canUnnestMerge(q, b, s) {
			continue
		}
		applyUnnestMerge(q, b, wi, s)
		return true
	}
	return false
}

// canUnnestMerge checks the imperative merge legality: single-table SPJ
// subquery (multi-table subqueries would need an inline view, which is the
// cost-based flavour), no nested subqueries, and a supported kind.
func canUnnestMerge(q *qtree.Query, b *qtree.Block, s *qtree.Subq) bool {
	sub := s.Block
	if sub.IsSetOp() || len(sub.From) != 1 || !sub.From[0].IsTable() ||
		sub.From[0].Kind != qtree.JoinInner ||
		sub.Distinct || sub.HasGroupBy() || sub.Limit > 0 || len(sub.OrderBy) > 0 {
		return false
	}
	if blockHasSubqueries(sub) || sub.HasWindowFuncs() {
		return false
	}
	if !correlatedToParentOnly(b, sub) {
		return false
	}
	switch s.Kind {
	case qtree.SubqExists, qtree.SubqIn, qtree.SubqNotExists:
		return true
	case qtree.SubqNotIn:
		// Multi-item connecting conditions with nullable columns cannot be
		// unnested (§2.1.1); single-item always can via null-aware antijoin.
		return len(s.Left) == 1
	}
	return false
}

// applyUnnestMerge replaces the subquery conjunct with a semijoined or
// antijoined from item (Q2 -> Q3).
func applyUnnestMerge(q *qtree.Query, b *qtree.Block, wi int, s *qtree.Subq) {
	// The subquery's from item migrates into b and is retagged as a join, so
	// both blocks must be private; materializing the subquery block rebuilds
	// the conjunct's spine, so s is re-fetched afterwards.
	b = q.Mutable(b)
	sub := q.Mutable(s.Block)
	ns, ok := b.Where[wi].(*qtree.Subq)
	if !ok {
		// The caller just found a subquery at this conjunct; anything else
		// here means the tree changed underneath us. The heuristic driver
		// recovers panics and quarantines the rule.
		panic(fmt.Sprintf("transform: unnest-merge conjunct %d is %T, want *qtree.Subq", wi, b.Where[wi]))
	}
	s = ns
	item := sub.From[0] // keeps its from ID: correlation references hold
	var conds []qtree.Expr
	// Connecting condition(s): left op select-item.
	for i, le := range s.Left {
		conds = append(conds, &qtree.Bin{Op: qtree.OpEq, L: le, R: sub.Select[i].Expr})
	}
	// The subquery's own predicates (correlation included) become join
	// conditions. Under a null-aware antijoin only the connecting condition
	// is null-aware; the subquery's own WHERE is strict (a row where it is
	// UNKNOWN is simply not in the subquery result), so mark it IS TRUE.
	for _, w := range sub.Where {
		if s.Kind == qtree.SubqNotIn {
			conds = append(conds, &qtree.IsTrue{E: w})
		} else {
			conds = append(conds, w)
		}
	}

	switch s.Kind {
	case qtree.SubqExists, qtree.SubqIn:
		item.Kind = qtree.JoinSemi
	case qtree.SubqNotExists:
		item.Kind = qtree.JoinAnti
	case qtree.SubqNotIn:
		item.Kind = qtree.JoinNullAwareAnti
		if leftNonNull(b, s.Left[0]) && selectNonNull(sub, 0) {
			item.Kind = qtree.JoinAnti
		}
	}
	item.Cond = conds
	removeWhereAt(b, wi)
	b.From = append(b.From, item)
}

// leftNonNull reports whether the outer-side connecting expression is
// provably non-null (a non-nullable table column).
func leftNonNull(b *qtree.Block, e qtree.Expr) bool {
	c, ok := e.(*qtree.Col)
	if !ok {
		return false
	}
	f := b.FindFrom(c.From)
	if f == nil || !f.IsTable() {
		return false
	}
	if c.Ord == f.Table.RowidOrdinal() {
		return true
	}
	return c.Ord < len(f.Table.Cols) && !f.Table.Cols[c.Ord].Nullable
}

// selectNonNull reports whether subquery output ord is a non-nullable base
// column.
func selectNonNull(sub *qtree.Block, ord int) bool {
	c, ok := sub.Select[ord].Expr.(*qtree.Col)
	if !ok {
		return false
	}
	f := sub.FindFrom(c.From)
	if f == nil || !f.IsTable() {
		return false
	}
	if c.Ord == f.Table.RowidOrdinal() {
		return true
	}
	return c.Ord < len(f.Table.Cols) && !f.Table.Cols[c.Ord].Nullable
}

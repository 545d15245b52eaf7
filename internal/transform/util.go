package transform

import (
	"repro/internal/datum"
	"repro/internal/qtree"
)

// refsOf returns the from IDs referenced by e (including inside subquery
// blocks).
func refsOf(e qtree.Expr) map[qtree.FromID]bool {
	s := map[qtree.FromID]bool{}
	qtree.ColsUsed(e, s)
	return s
}

// refsOnly reports whether e references no from items other than those in
// allowed (expressions with zero references qualify).
func refsOnly(e qtree.Expr, allowed map[qtree.FromID]bool) bool {
	for id := range refsOf(e) {
		if !allowed[id] {
			return false
		}
	}
	return true
}

// refersTo reports whether e references from item id.
func refersTo(e qtree.Expr, id qtree.FromID) bool {
	return refsOf(e)[id]
}

// containsSubq reports whether the expression contains a subquery.
func containsSubq(e qtree.Expr) bool {
	found := false
	qtree.WalkExpr(e, func(x qtree.Expr) bool {
		if _, ok := x.(*qtree.Subq); ok {
			found = true
		}
		return !found
	})
	return found
}

// isExpensive reports whether the predicate contains an expensive function
// or a subquery (the paper's definition of expensive predicates, §2.2.6).
func isExpensive(e qtree.Expr) bool {
	found := false
	qtree.WalkExpr(e, func(x qtree.Expr) bool {
		switch v := x.(type) {
		case *qtree.Func:
			if v.Def.Expensive {
				found = true
			}
		case *qtree.Subq:
			found = true
			return false
		}
		return !found
	})
	return found
}

// substituteView rewrites every reference to view item id in block b (and
// nested blocks) with the view's select-list expression for that ordinal.
// exprFor returns a fresh copy of the replacement for ordinal ord.
func substituteView(b *qtree.Block, id qtree.FromID, exprFor func(ord int) qtree.Expr) {
	qtree.RewriteBlockExprsDeep(b, func(e qtree.Expr) qtree.Expr {
		if c, ok := e.(*qtree.Col); ok && c.From == id {
			return exprFor(c.Ord)
		}
		return nil
	})
}

// cloneExpr deep-copies an expression. Column references keep their from
// IDs, but any embedded subquery blocks receive fresh identities so the
// copy does not collide with the original.
func cloneExpr(q *qtree.Query, e qtree.Expr) qtree.Expr {
	r := emptyRemap(q)
	qtree.WalkExpr(e, func(x qtree.Expr) bool {
		if s, ok := x.(*qtree.Subq); ok {
			qtree.RegisterBlockIDs(s.Block, r)
			return false
		}
		return true
	})
	return e.Clone(r)
}

// emptyRemap builds a remap that preserves all IDs but still carries the
// query (needed for cloning subquery blocks inside expressions).
func emptyRemap(q *qtree.Query) *qtree.Remap {
	return qtree.NewRemap(q)
}

// copyFromItem shallow-copies a from item (private Cond slice, same ID and
// view pointer). Rules that move an item between blocks use this so the
// receiving tree never aliases a struct still held by a copy-on-write base.
func copyFromItem(f *qtree.FromItem) *qtree.FromItem {
	nf := *f
	nf.Cond = append([]qtree.Expr(nil), f.Cond...)
	return &nf
}

// removeFromItem deletes the from item with the given ID from the block.
func removeFromItem(b *qtree.Block, id qtree.FromID) {
	out := b.From[:0]
	for _, f := range b.From {
		if f.ID != id {
			out = append(out, f)
		}
	}
	b.From = out
}

// removeWhereAt removes the conjunct at index i.
func removeWhereAt(b *qtree.Block, i int) {
	b.Where = append(b.Where[:i:i], b.Where[i+1:]...)
}

// eqConjunct matches e as an equality between two plain columns.
func eqConjunct(e qtree.Expr) (l, r *qtree.Col, ok bool) {
	b, isBin := e.(*qtree.Bin)
	if !isBin || b.Op != qtree.OpEq {
		return nil, nil, false
	}
	lc, lok := b.L.(*qtree.Col)
	rc, rok := b.R.(*qtree.Col)
	if !lok || !rok {
		return nil, nil, false
	}
	return lc, rc, true
}

// falseConst is a FALSE literal.
func falseConst() qtree.Expr { return &qtree.Const{Val: datum.NewBool(false)} }

// blockHasSubqueries reports whether any expression of b contains a
// subquery (not descending into views).
func blockHasSubqueries(b *qtree.Block) bool {
	found := false
	b.VisitExprs(func(e qtree.Expr) {
		if _, ok := e.(*qtree.Subq); ok {
			found = true
		}
	})
	return found
}

// pushableThroughWindows reports whether predicate e (over view outputs of
// viewID) may be pushed below the block's window functions: every
// referenced output must be an expression that appears in the PARTITION BY
// of every window function of the block. The paper (§2.1.3): "Pushing
// predicates on PARTITION BY clauses can always be done"; pushing through
// ORDER BY-dependent outputs requires frame analysis we do not attempt.
func pushableThroughWindows(v *qtree.Block, e qtree.Expr, viewID qtree.FromID) bool {
	if !v.HasWindowFuncs() {
		return true
	}
	var wins []*qtree.WinFunc
	for _, it := range v.Select {
		qtree.WalkExpr(it.Expr, func(x qtree.Expr) bool {
			if w, ok := x.(*qtree.WinFunc); ok {
				wins = append(wins, w)
				return false
			}
			return true
		})
	}
	ok := true
	qtree.WalkExpr(e, func(x qtree.Expr) bool {
		c, isCol := x.(*qtree.Col)
		if !isCol || c.From != viewID {
			return true
		}
		se := v.Select[c.Ord].Expr
		if qtree.ContainsWindow(se) {
			ok = false
			return false
		}
		key := se.String()
		for _, w := range wins {
			inPBY := false
			for _, pe := range w.PartitionBy {
				if pe.String() == key {
					inPBY = true
					break
				}
			}
			if !inPBY {
				ok = false
				return false
			}
		}
		return true
	})
	return ok
}

// isPlainSPJ reports whether the block is a simple select-project-join:
// no set operation, no grouping, no distinct, no order by, no limit.
func isPlainSPJ(b *qtree.Block) bool {
	return b.Set == nil && !b.Distinct && !b.HasGroupBy() &&
		len(b.OrderBy) == 0 && b.Limit == 0
}

// colOfTable matches e as a plain column of from item id and returns its
// ordinal.
func colOfTable(e qtree.Expr, id qtree.FromID) (int, bool) {
	c, ok := e.(*qtree.Col)
	if !ok || c.From != id {
		return 0, false
	}
	return c.Ord, true
}

package transform

import "repro/internal/qtree"

// PredicateMoveAround implements filter predicate move-around (§2.1.3):
// inexpensive single-source filter predicates are pushed from a block into
// its views (through DISTINCT, through GROUP BY when they reference only
// grouping outputs, into every branch of UNION/UNION ALL, and into the
// appropriate children of INTERSECT/MINUS), and transitive predicates are
// generated across equality classes so filters move across join operands.
type PredicateMoveAround struct{}

// Name implements HeuristicRule.
func (*PredicateMoveAround) Name() string { return "filter predicate move around" }

// Visit implements HeuristicRule. Following [Levy/Mumick/Sagiv], predicates
// are first pulled up (copied, since they remain implied below), then
// propagated across equality classes, then pushed down — so a filter deep
// in one view can reach the scan of a joined view.
func (*PredicateMoveAround) Visit(q *qtree.Query, b *qtree.Block) (bool, error) {
	// Copy-on-write materialization forwards blocks; each helper
	// re-resolves so the later steps see the earlier steps' writes.
	pulled := pullUpImplied(q, b)
	closed := transitiveClose(q, b)
	pushed := pushIntoViews(q, b)
	return pulled || closed || pushed, nil
}

// pullUpImplied copies constant equality/range predicates on a view's
// output columns up to the containing block (they remain true above the
// view), so that transitive closure can carry them to the view's join
// partners. Set-operation views are skipped: a branch-local predicate is
// not implied by the union.
func pullUpImplied(q *qtree.Query, b *qtree.Block) bool {
	b = q.Resolve(b)
	if b.IsSetOp() {
		return false
	}
	changed := false
	for _, f := range b.From {
		if f.View == nil || f.View.IsSetOp() || f.Kind != qtree.JoinInner {
			continue
		}
		v := f.View
		for _, e := range v.Where {
			bin, ok := e.(*qtree.Bin)
			if !ok || !bin.Op.IsComparison() || bin.Op == qtree.OpNullSafeEq {
				continue
			}
			var side *qtree.Col
			var con *qtree.Const
			op := bin.Op
			if c, isC := bin.R.(*qtree.Const); isC {
				side, _ = bin.L.(*qtree.Col)
				con = c
			} else if c, isC := bin.L.(*qtree.Const); isC {
				side, _ = bin.R.(*qtree.Col)
				con, op = c, bin.Op.Commute()
			}
			if side == nil {
				continue
			}
			// Only a column the view exposes as an output moves up.
			ord := selectOrd(v, side)
			if ord < 0 {
				continue
			}
			up := &qtree.Bin{
				Op: op,
				L:  &qtree.Col{From: f.ID, Ord: ord, Name: f.ColName(ord)},
				R:  &qtree.Const{Val: con.Val},
			}
			if qtree.IndexOf(b.Where, up) >= 0 {
				continue
			}
			b = q.Mutable(b)
			b.Where = append(b.Where, up)
			changed = true
		}
	}
	return changed
}

// transitiveClose derives new constant predicates across equality classes:
// given a = b and a <op> const, add b <op> const (bounded, deduplicated).
func transitiveClose(q *qtree.Query, b *qtree.Block) bool {
	b = q.Resolve(b)
	if b.IsSetOp() {
		return false
	}
	// Union-find over columns appearing in equality conjuncts. Identity is
	// (from item, ordinal): display names can differ in case between a
	// view alias and its uppercased references.
	type colKey struct {
		from qtree.FromID
		ord  int
	}
	parent := map[colKey]colKey{}
	colByKey := map[colKey]*qtree.Col{}
	find := func(x colKey) colKey {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	key := func(c *qtree.Col) colKey {
		k := colKey{c.From, c.Ord}
		if _, ok := parent[k]; !ok {
			parent[k] = k
			colByKey[k] = c
		}
		return k
	}
	union := func(a, bk colKey) {
		ra, rb := find(a), find(bk)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for _, e := range b.Where {
		if l, r, ok := eqConjunct(e); ok {
			union(key(l), key(r))
		}
	}
	if len(parent) == 0 {
		return false
	}
	// For each col-vs-constant comparison, propagate to class members.
	changed := false
	var derived []qtree.Expr
	for _, e := range b.Where {
		bin, ok := e.(*qtree.Bin)
		if !ok || !bin.Op.IsComparison() || bin.Op == qtree.OpNullSafeEq {
			continue
		}
		var col *qtree.Col
		var con qtree.Expr
		var op qtree.BinOp
		if c, isCol := bin.L.(*qtree.Col); isCol {
			if _, isConst := bin.R.(*qtree.Const); isConst {
				col, con, op = c, bin.R, bin.Op
			}
		} else if c, isCol := bin.R.(*qtree.Col); isCol {
			if _, isConst := bin.L.(*qtree.Const); isConst {
				col, con, op = c, bin.L, bin.Op.Commute()
			}
		}
		if col == nil {
			continue
		}
		ck := colKey{col.From, col.Ord}
		if _, known := parent[ck]; !known {
			continue
		}
		root := find(ck)
		for other, p := range parent {
			_ = p
			if other == ck || find(other) != root {
				continue
			}
			oc := colByKey[other]
			ne := &qtree.Bin{Op: op, L: &qtree.Col{From: oc.From, Ord: oc.Ord, Name: oc.Name}, R: qtree.CloneExpr(q, con)}
			if qtree.IndexOf(b.Where, ne) < 0 && qtree.IndexOf(derived, ne) < 0 {
				derived = append(derived, ne)
				changed = true
			}
		}
	}
	if len(derived) == 0 {
		return false
	}
	// Guarded so a no-op pass never writes (even a same-value slice-header
	// store) into a block shared with the copy-on-write base.
	b = q.Mutable(b)
	b.Where = append(b.Where, derived...)
	return changed
}

// pushIntoViews pushes eligible conjuncts of b into the view from items
// they constrain.
func pushIntoViews(q *qtree.Query, b *qtree.Block) bool {
	b = q.Resolve(b)
	if b.IsSetOp() {
		return false
	}
	changed := false
	for wi := 0; wi < len(b.Where); wi++ {
		e := b.Where[wi]
		if isExpensive(e) {
			continue // only inexpensive predicates move (§2.1.3)
		}
		target := soleViewTarget(b, e)
		if target == nil {
			continue
		}
		if pushPredIntoView(q, b, target, e) {
			// A successful push materialized the view's path, which runs
			// through b; re-resolve before dropping the outer conjunct.
			b = q.Mutable(q.Resolve(b))
			removeWhereAt(b, wi)
			wi--
			changed = true
		}
	}
	return changed
}

// soleViewTarget returns the view item that is the only local relation e
// references, or nil.
func soleViewTarget(b *qtree.Block, e qtree.Expr) *qtree.FromItem {
	var target *qtree.FromItem
	ok := true
	qtree.ExprCols(e, func(c *qtree.Col) {
		// A non-local reference (correlation) conservatively keeps the
		// predicate in place.
		f := b.FindFrom(c.From)
		if f == nil || f.View == nil || f.Kind != qtree.JoinInner || f.Lateral ||
			target != nil && target != f {
			ok = false
			return
		}
		target = f
	})
	if !ok {
		return nil
	}
	return target
}

// pushPredIntoView pushes conjunct e (which references only view f's
// outputs) inside the view; reports whether the push was legal.
func pushPredIntoView(q *qtree.Query, b *qtree.Block, f *qtree.FromItem, e qtree.Expr) bool {
	return pushIntoBlock(q, f.View, f.ID, e)
}

func pushIntoBlock(q *qtree.Query, v *qtree.Block, viewID qtree.FromID, e qtree.Expr) bool {
	if v.Limit > 0 {
		return false // cannot push past a row limit
	}
	if v.Set != nil {
		switch v.Set.Kind {
		case qtree.SetUnion, qtree.SetUnionAll, qtree.SetIntersect:
			// Push into every branch; verify all branches accept first.
			for _, c := range v.Set.Children {
				if !canAcceptPush(c, e, viewID) {
					return false
				}
			}
			for _, c := range v.Set.Children {
				pushIntoBlock(q, c, viewID, e)
			}
			return true
		case qtree.SetMinus:
			// Only the first child may be filtered: removing rows from the
			// subtrahend would add rows to the result.
			if !canAcceptPush(v.Set.Children[0], e, viewID) {
				return false
			}
			return pushIntoBlock(q, v.Set.Children[0], viewID, e)
		}
		return false
	}
	if !canAcceptPush(v, e, viewID) {
		return false
	}
	// Substitute output references with the view's select expressions.
	pushed := qtree.RewriteExpr(qtree.CloneExpr(q, e), func(x qtree.Expr) qtree.Expr {
		if c, ok := x.(*qtree.Col); ok && c.From == viewID {
			return qtree.CloneExpr(q, v.Select[c.Ord].Expr)
		}
		return nil
	})
	// An already-present conjunct (e.g. one that pull-up copied from this
	// very view) is left alone at the outer level; pushing would duplicate
	// it and the pull-up/push-down loop would never reach a fixpoint.
	if qtree.IndexOf(v.Where, pushed) >= 0 {
		return false
	}
	v = q.Mutable(v)
	v.Where = append(v.Where, pushed)
	return true
}

// canAcceptPush checks that pushing a predicate on the given view outputs
// below the block's operators is legal: through DISTINCT always; through
// GROUP BY only when every referenced output is a grouping expression.
func canAcceptPush(v *qtree.Block, e qtree.Expr, viewID qtree.FromID) bool {
	if v.Set != nil {
		// Nested set op: recurse at push time.
		return v.Limit == 0
	}
	if v.Limit > 0 {
		return false
	}
	if !pushableThroughWindows(v, e, viewID) {
		return false
	}
	if !v.HasGroupBy() {
		return true
	}
	// Every referenced output ordinal must be a grouping expression.
	ok := true
	qtree.WalkExpr(e, func(x qtree.Expr) bool {
		if c, isCol := x.(*qtree.Col); isCol && c.From == viewID {
			se := v.Select[c.Ord].Expr
			if qtree.ContainsAgg(se) {
				ok = false
				return false
			}
			if qtree.IndexOf(v.GroupBy, se) < 0 {
				ok = false
				return false
			}
		}
		return true
	})
	return ok
}

// GroupPruning removes grouping sets that cannot satisfy the outer block's
// filters (§2.1.4): a null-rejecting predicate on a grouping column prunes
// every set in which that column is rolled up (and therefore null).
type GroupPruning struct{}

// Name implements HeuristicRule.
func (*GroupPruning) Name() string { return "group pruning" }

// Visit implements HeuristicRule.
func (*GroupPruning) Visit(q *qtree.Query, b *qtree.Block) (bool, error) {
	changed := false
	for _, f := range b.From {
		if f.View == nil || f.View.GroupingSets == nil {
			continue
		}
		if pruneGroups(q, b, f) {
			changed = true
		}
	}
	return changed, nil
}

func pruneGroups(q *qtree.Query, b *qtree.Block, f *qtree.FromItem) bool {
	v := f.View
	// Find grouping columns with null-rejecting outer predicates.
	required := map[int]bool{} // GroupBy index that must be non-null
	for _, e := range b.Where {
		ord, ok := nullRejectingOn(e, f.ID)
		if !ok {
			continue
		}
		se := v.Select[ord].Expr
		for gi, g := range v.GroupBy {
			if qtree.Equal(g, se) {
				required[gi] = true
			}
		}
	}
	if len(required) == 0 {
		return false
	}
	var kept [][]int
	for _, set := range v.GroupingSets {
		has := map[int]bool{}
		for _, gi := range set {
			has[gi] = true
		}
		ok := true
		for gi := range required {
			if !has[gi] {
				ok = false
				break
			}
		}
		if ok {
			kept = append(kept, set)
		}
	}
	if len(kept) == len(v.GroupingSets) {
		return false
	}
	if len(kept) == 0 {
		// Every group is pruned: the view returns nothing.
		full := make([]int, len(v.GroupBy))
		for i := range full {
			full[i] = i
		}
		v = q.Mutable(v)
		v.GroupingSets = [][]int{full}
		v.Where = append(v.Where, falseConst())
		return true
	}
	v = q.Mutable(v)
	v.GroupingSets = kept
	return true
}

// nullRejectingOn matches e as a null-rejecting predicate on a single
// output column of from item id and returns the ordinal.
func nullRejectingOn(e qtree.Expr, id qtree.FromID) (int, bool) {
	switch v := e.(type) {
	case *qtree.Bin:
		if !v.Op.IsComparison() || v.Op == qtree.OpNullSafeEq {
			return 0, false
		}
		if c, ok := v.L.(*qtree.Col); ok && c.From == id {
			if _, isConst := v.R.(*qtree.Const); isConst {
				return c.Ord, true
			}
		}
		if c, ok := v.R.(*qtree.Col); ok && c.From == id {
			if _, isConst := v.L.(*qtree.Const); isConst {
				return c.Ord, true
			}
		}
	case *qtree.IsNull:
		if v.Neg {
			if c, ok := v.E.(*qtree.Col); ok && c.From == id {
				return c.Ord, true
			}
		}
	case *qtree.InList:
		if v.Neg {
			return 0, false
		}
		if c, ok := v.E.(*qtree.Col); ok && c.From == id {
			return c.Ord, true
		}
	case *qtree.Like:
		if v.Neg {
			return 0, false
		}
		if c, ok := v.E.(*qtree.Col); ok && c.From == id {
			return c.Ord, true
		}
	}
	return 0, false
}

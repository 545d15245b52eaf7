package transform

import (
	"errors"
	"fmt"

	"repro/internal/qtree"
)

// ViewStrategy is the cost-based decision for group-by / distinct views:
// merge the view into its containing block (delayed aggregation, §2.2.2,
// Q10 -> Q11), or push join predicates down into it (JPPD, §2.2.3,
// Q12 -> Q13). When both apply they are juxtaposed (§3.3.2): the state
// space for the view object has three states — unchanged, merged, pushed —
// and the optimizer picks the cheapest.
type ViewStrategy struct {
	// NoJPPD disables the pushdown alternative; the benchmark harness uses
	// it to isolate merging (Figure 4 disables JPPD entirely).
	NoJPPD bool
}

// Name implements Rule.
func (*ViewStrategy) Name() string { return "group-by view merging / join predicate pushdown" }

// Find implements Rule. Variant 1 is merging when legal (otherwise JPPD);
// variant 2 is JPPD.
func (r *ViewStrategy) Find(q *qtree.Query) []Object {
	var out []Object
	for _, b := range Blocks(q) {
		if b.IsSetOp() {
			continue
		}
		for _, f := range b.From {
			mergeOK := canMergeGroupByView(b, f)
			jppdOK := !r.NoJPPD && canJPPD(b, f)
			if mergeOK || jppdOK {
				out = append(out, Object{Block: b, From: f.ID}.withForms(mergeOK, jppdOK))
			}
		}
	}
	return out
}

// Apply implements Rule.
func (r *ViewStrategy) Apply(q *qtree.Query, o Object, variant int) error {
	b := q.Resolve(o.Block)
	f := b.FindFrom(o.From)
	if f == nil {
		return fmt.Errorf("view strategy: view item %d not found", o.From)
	}
	switch o.form(variant) {
	case formFirst:
		return mergeGroupByView(q, b, f)
	case formSecond:
		return jppdView(q, b, f)
	}
	return fmt.Errorf("view strategy: no variant %d for view item %d", variant, o.From)
}

// canMergeGroupByView checks Q10 -> Q11 legality.
func canMergeGroupByView(b *qtree.Block, f *qtree.FromItem) bool {
	if f.View == nil || f.Kind != qtree.JoinInner || f.Lateral {
		return false
	}
	v := f.View
	if v.IsSetOp() || v.Limit > 0 || len(v.OrderBy) > 0 || v.GroupingSets != nil {
		return false
	}
	if !v.HasGroupBy() && !v.Distinct {
		return false // SPJ views merge heuristically
	}
	if v.Distinct && v.HasGroupBy() {
		return false
	}
	if blockHasSubqueries(v) || v.HasWindowFuncs() {
		return false
	}
	// The containing block must be a plain SPJ block over base tables.
	if b.IsSetOp() || b.Distinct || b.HasGroupBy() || b.Limit > 0 {
		return false
	}
	for _, other := range b.From {
		if other == f {
			continue
		}
		if !other.IsTable() || other.Kind != qtree.JoinInner {
			return false
		}
	}
	// Aggregate view outputs: aggregates or grouping expressions only.
	if v.HasGroupBy() {
		for _, it := range v.Select {
			if !qtree.ContainsAgg(it.Expr) && qtree.IndexOf(v.GroupBy, it.Expr) < 0 {
				return false
			}
		}
	}
	return true
}

// mergeGroupByView merges a group-by (or distinct) view into its containing
// block by pulling the grouping above the joins: the outer block becomes a
// grouped block over the view's grouping columns plus the rowids of the
// outer tables (Q10 -> Q11, with j.rowid in the GROUP BY exactly as the
// paper shows).
func mergeGroupByView(q *qtree.Query, b *qtree.Block, f *qtree.FromItem) error {
	// The merge rewrites expressions across block boundaries and splices the
	// view body into b, so the whole subtree must be private under
	// copy-on-write; the view item is re-located in the materialized block.
	b = q.MutableDeep(q.Resolve(b))
	f = b.FindFrom(f.ID)
	if f == nil {
		return errors.New("group-by view merge: view item not found")
	}
	if !canMergeGroupByView(b, f) {
		return errors.New("group-by view merge: not legal here")
	}
	v := f.View
	// Normalize DISTINCT as GROUP BY over all outputs.
	if v.Distinct {
		v.Distinct = false
		for _, it := range v.Select {
			v.GroupBy = append(v.GroupBy, it.Expr)
		}
	}

	// Substitute view output references throughout the block.
	substituteView(b, f.ID, func(ord int) qtree.Expr {
		return qtree.CloneExpr(q, v.Select[ord].Expr)
	})

	// Splice the view's relations and filters; a view conjunct the
	// substituted outer block already holds is not added twice.
	removeFromItem(b, f.ID)
	outerItems := append([]*qtree.FromItem(nil), b.From...)
	b.From = append(b.From, v.From...)
	b.Where = appendNew(b.Where, v.Where...)

	// Predicates that now contain aggregates must become HAVING.
	var keep []qtree.Expr
	for _, e := range b.Where {
		if qtree.ContainsAgg(e) {
			b.Having = append(b.Having, e)
		} else {
			keep = append(keep, e)
		}
	}
	b.Where = keep

	// New grouping: the view's grouping expressions plus a rowid per outer
	// table, plus every outer column the block still references outside
	// aggregates.
	b.GroupBy = append(b.GroupBy, v.GroupBy...)
	for _, it := range outerItems {
		if it.IsTable() {
			b.GroupBy = appendNew(b.GroupBy, &qtree.Col{From: it.ID, Ord: it.Table.RowidOrdinal(), Name: "ROWID"})
		}
	}
	outerIDs := map[qtree.FromID]bool{}
	for _, it := range outerItems {
		outerIDs[it.ID] = true
	}
	collectNaked := func(e qtree.Expr) {
		qtree.WalkExpr(e, func(x qtree.Expr) bool {
			switch vv := x.(type) {
			case *qtree.Agg:
				return false
			case *qtree.Col:
				if outerIDs[vv.From] {
					b.GroupBy = appendNew(b.GroupBy, &qtree.Col{From: vv.From, Ord: vv.Ord, Name: vv.Name})
				}
			}
			return true
		})
	}
	for _, it := range b.Select {
		collectNaked(it.Expr)
	}
	for _, h := range b.Having {
		collectNaked(h)
	}
	for _, o := range b.OrderBy {
		collectNaked(o.Expr)
	}
	return nil
}

// canJPPD checks join predicate pushdown legality for the view (§2.2.3).
func canJPPD(b *qtree.Block, f *qtree.FromItem) bool {
	if f.View == nil || f.Kind != qtree.JoinInner || f.Lateral {
		return false
	}
	v := f.View
	if v.Limit > 0 || len(v.OrderBy) > 0 {
		return false
	}
	if v.IsSetOp() && v.Set.Kind != qtree.SetUnionAll && v.Set.Kind != qtree.SetUnion {
		return false
	}
	// A mergeable SPJ view is handled heuristically; JPPD targets group-by,
	// distinct and union-all views.
	if !v.IsSetOp() && !v.Distinct && !v.HasGroupBy() {
		return false
	}
	// At least one pushable join predicate.
	return len(jppdConds(b, f)) > 0
}

// jppdConds returns the indexes of b.Where conjuncts that can be pushed
// into view f: equalities between a view output and an expression over
// other local relations, legal to push below the view's operators.
func jppdConds(b *qtree.Block, f *qtree.FromItem) []int {
	local := b.LocalFromIDs()
	var out []int
	for wi, e := range b.Where {
		bin, ok := e.(*qtree.Bin)
		if !ok || bin.Op != qtree.OpEq {
			continue
		}
		side := func(viewSide, otherSide qtree.Expr) bool {
			c, isCol := viewSide.(*qtree.Col)
			if !isCol || c.From != f.ID {
				return false
			}
			// The other side references local items only, at least one,
			// and not the view.
			refs, ok := false, true
			qtree.ExprCols(otherSide, func(c *qtree.Col) {
				refs = true
				ok = ok && c.From != f.ID && local[c.From]
			})
			if !refs || !ok {
				return false
			}
			// The push must be legal through grouping.
			return jppdAccepts(f.View, c.Ord)
		}
		if side(bin.L, bin.R) || side(bin.R, bin.L) {
			out = append(out, wi)
		}
	}
	return out
}

// jppdAccepts reports whether a predicate on view output ord may be pushed
// below the view's operators.
func jppdAccepts(v *qtree.Block, ord int) bool {
	if v.Set != nil {
		for _, c := range v.Set.Children {
			if !jppdAccepts(c, ord) {
				return false
			}
		}
		return true
	}
	if v.Limit > 0 {
		return false
	}
	// Pushing below window functions is only legal on PARTITION BY columns
	// of every window in the view (§2.1.3).
	if v.HasWindowFuncs() && !pushableThroughWindows(v, &qtree.Col{From: jppdProbe, Ord: ord}, jppdProbe) {
		return false
	}
	if !v.HasGroupBy() {
		return true
	}
	se := v.Select[ord].Expr
	if qtree.ContainsAgg(se) {
		return false
	}
	return qtree.IndexOf(v.GroupBy, se) >= 0
}

// jppdProbe is a synthetic from ID used to probe output-ordinal legality
// against the window pushdown rule.
const jppdProbe qtree.FromID = -99

// jppdView pushes the eligible join predicates into the view, making it
// lateral (correlated), and applies the distinct-removal optimization of
// Q12 -> Q13 when the view is a DISTINCT view whose outputs become
// otherwise unused: the distinct is dropped and the join becomes a
// semijoin.
func jppdView(q *qtree.Query, b *qtree.Block, f *qtree.FromItem) error {
	// Pushdown mutates the view body (every set-operation branch) and the
	// containing block; privatize the subtree and re-locate the view item.
	b = q.MutableDeep(q.Resolve(b))
	f = b.FindFrom(f.ID)
	if f == nil {
		return errors.New("jppd: view item not found")
	}
	conds := jppdConds(b, f)
	if len(conds) == 0 {
		return errors.New("jppd: no pushable join predicates")
	}
	// Push each predicate (removing from the outer block as we go; indexes
	// shift, so work descending).
	for i := len(conds) - 1; i >= 0; i-- {
		wi := conds[i]
		e := b.Where[wi]
		if !pushJoinPredIntoView(q, f, e) {
			return errors.New("jppd: predicate rejected by view")
		}
		removeWhereAt(b, wi)
	}
	f.Lateral = true

	// Distinct removal + semijoin conversion (Q13).
	v := f.View
	if v.Set == nil && v.Distinct && !v.HasGroupBy() && !blockRefersTo(b, f.ID) {
		v.Distinct = false
		f.Kind = qtree.JoinSemi
	}
	return nil
}

// pushJoinPredIntoView pushes a join predicate into the view body (each
// branch for set-operation views), substituting view output references with
// the underlying expressions. Other relation references remain and become
// correlation.
func pushJoinPredIntoView(q *qtree.Query, f *qtree.FromItem, e qtree.Expr) bool {
	var push func(v *qtree.Block) bool
	push = func(v *qtree.Block) bool {
		if v.Set != nil {
			for _, c := range v.Set.Children {
				if !push(c) {
					return false
				}
			}
			return true
		}
		pushed := qtree.RewriteExpr(qtree.CloneExpr(q, e), func(x qtree.Expr) qtree.Expr {
			if c, ok := x.(*qtree.Col); ok && c.From == f.ID {
				return qtree.CloneExpr(q, v.Select[c.Ord].Expr)
			}
			return nil
		})
		v.Where = append(v.Where, pushed)
		return true
	}
	return push(f.View)
}

package transform

import (
	"fmt"

	"repro/internal/qtree"
)

// PredicatePullup pulls an expensive filter predicate out of a view into
// the view's containing query block (§2.2.6, Q16 -> Q17). It is considered
// only when the containing block has a ROWNUM limit and the view contains a
// blocking operator (ORDER BY): the limit means the expensive predicate may
// run on far fewer rows after the pull-up. Columns the predicate needs are
// exposed as extra (hidden) view outputs.
type PredicatePullup struct{}

// Name implements Rule.
func (*PredicatePullup) Name() string { return "predicate pullup" }

// Find implements Rule.
func (r *PredicatePullup) Find(q *qtree.Query) []Object {
	var out []Object
	for _, b := range Blocks(q) {
		if b.IsSetOp() || b.Limit == 0 {
			continue // only under a rownum predicate (§2.2.6)
		}
		for _, f := range b.From {
			if !pullupView(f) {
				continue
			}
			for wi, e := range f.View.Where {
				if isExpensive(e) {
					out = append(out, Object{Variants: 1, Block: b, From: f.ID, Where: wi})
				}
			}
		}
	}
	return out
}

// pullupView reports whether f is a view a predicate can be pulled out of:
// one that blocks (ORDER BY) and is otherwise simple.
func pullupView(f *qtree.FromItem) bool {
	if f.View == nil || f.Kind != qtree.JoinInner || f.Lateral {
		return false
	}
	v := f.View
	return !v.IsSetOp() && len(v.OrderBy) > 0 && v.Limit == 0 &&
		!v.Distinct && !v.HasGroupBy() && !v.HasWindowFuncs()
}

// Apply implements Rule.
func (r *PredicatePullup) Apply(q *qtree.Query, o Object, variant int) error {
	// Both the view (losing the predicate, gaining hidden outputs) and the
	// containing block (gaining the pulled predicate) are mutated, and the
	// predicate's subquery blocks are rewritten in place — privatize the
	// view's subtree under copy-on-write.
	b := q.Mutable(o.Block)
	f := b.FindFrom(o.From)
	if f == nil || !pullupView(f) || o.Where >= len(f.View.Where) {
		return fmt.Errorf("predicate pullup: view item %d has no conjunct %d to pull up", o.From, o.Where)
	}
	v := q.MutableDeep(f.View)
	pred := v.Where[o.Where]
	v.Where = append(v.Where[:o.Where:o.Where], v.Where[o.Where+1:]...)

	// Expose every view-internal column the predicate references as an
	// extra output, reusing existing outputs where possible.
	internal := v.Defined()
	mapCol := func(c *qtree.Col) *qtree.Col {
		if !internal[c.From] {
			return nil // already an outer reference (correlation)
		}
		ord := selectOrd(v, c)
		if ord < 0 {
			ord = len(v.Select)
			v.Select = append(v.Select, qtree.SelectItem{
				Expr:  &qtree.Col{From: c.From, Ord: c.Ord, Name: c.Name},
				Alias: fmt.Sprintf("PU%d", ord),
			})
		}
		return &qtree.Col{From: f.ID, Ord: ord, Name: c.Name}
	}

	// Rewrite the predicate: its own columns (a subquery's left operands
	// included) via RewriteExpr; columns inside subquery blocks via a deep
	// rewrite of those blocks.
	pulled := qtree.RewriteExpr(pred, func(x qtree.Expr) qtree.Expr {
		if c, ok := x.(*qtree.Col); ok {
			if nc := mapCol(c); nc != nil {
				return nc
			}
		}
		return nil
	})
	qtree.WalkExpr(pulled, func(x qtree.Expr) bool {
		if s, ok := x.(*qtree.Subq); ok {
			qtree.RewriteBlockExprsDeep(s.Block, func(e qtree.Expr) qtree.Expr {
				if c, ok := e.(*qtree.Col); ok {
					if nc := mapCol(c); nc != nil {
						return nc
					}
				}
				return nil
			})
		}
		return true
	})
	b.Where = append(b.Where, pulled)
	return nil
}

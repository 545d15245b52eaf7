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

type pullupObj struct {
	block *qtree.Block
	from  int
	where int // index of the expensive predicate in the view's WHERE
}

func (r *PredicatePullup) objects(q *qtree.Query) []pullupObj {
	var out []pullupObj
	for _, b := range Blocks(q) {
		if b.IsSetOp() || b.Limit == 0 {
			continue // only under a rownum predicate (§2.2.6)
		}
		for fi, f := range b.From {
			if f.View == nil || f.Kind != qtree.JoinInner || f.Lateral {
				continue
			}
			v := f.View
			if v.IsSetOp() || len(v.OrderBy) == 0 || v.Limit > 0 ||
				v.Distinct || v.HasGroupBy() || v.HasWindowFuncs() {
				continue // the view must block (ORDER BY) and be simple
			}
			for wi, e := range v.Where {
				if isExpensive(e) {
					out = append(out, pullupObj{block: b, from: fi, where: wi})
				}
			}
		}
	}
	return out
}

// Find implements Rule.
func (r *PredicatePullup) Find(q *qtree.Query) int { return len(r.objects(q)) }

// Variants implements Rule.
func (r *PredicatePullup) Variants(q *qtree.Query, obj int) int { return 1 }

// Apply implements Rule.
func (r *PredicatePullup) Apply(q *qtree.Query, obj, variant int) error {
	objs := r.objects(q)
	if obj >= len(objs) {
		return fmt.Errorf("predicate pullup: object %d out of range", obj)
	}
	o := objs[obj]
	// Both the view (losing the predicate, gaining hidden outputs) and the
	// containing block (gaining the pulled predicate) are mutated, and the
	// predicate's subquery blocks are rewritten in place — privatize the
	// view's subtree under copy-on-write.
	b := q.Mutable(o.block)
	f := b.From[o.from]
	v := q.MutableDeep(f.View)
	pred := v.Where[o.where]
	v.Where = append(v.Where[:o.where:o.where], v.Where[o.where+1:]...)

	// Expose every view-internal column the predicate references as an
	// extra output, reusing existing outputs where possible.
	internal := v.Defined()
	exposed := map[string]int{} // col string -> view output ordinal
	for i, it := range v.Select {
		if c, ok := it.Expr.(*qtree.Col); ok {
			exposed[c.String()] = i
		}
	}
	mapCol := func(c *qtree.Col) *qtree.Col {
		if !internal[c.From] {
			return nil // already an outer reference (correlation)
		}
		key := c.String()
		ord, ok := exposed[key]
		if !ok {
			ord = len(v.Select)
			v.Select = append(v.Select, qtree.SelectItem{
				Expr:  &qtree.Col{From: c.From, Ord: c.Ord, Name: c.Name},
				Alias: fmt.Sprintf("PU%d", ord),
			})
			exposed[key] = ord
		}
		return &qtree.Col{From: f.ID, Ord: ord, Name: c.Name}
	}

	// Rewrite the predicate: top-level columns via RewriteExpr; columns
	// inside subquery blocks via a deep rewrite of those blocks.
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
			return false
		}
		return true
	})
	b.Where = append(b.Where, pulled)
	return nil
}

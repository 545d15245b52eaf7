package transform

import (
	"fmt"

	"repro/internal/qtree"
)

// GroupByPlacement implements group-by pushdown / eager aggregation
// (§2.2.4): in a grouped join block, the aggregation is partially pushed
// below the joins onto the table that supplies every aggregate argument,
// which may drastically reduce the join input size. The outer block keeps a
// compensating aggregation (SUM of partial SUMs, SUM of partial COUNTs,
// MIN of MINs, and AVG decomposed into SUM/COUNT).
type GroupByPlacement struct{}

// Name implements Rule.
func (*GroupByPlacement) Name() string { return "group-by placement" }

// Find implements Rule.
func (r *GroupByPlacement) Find(q *qtree.Query) []Object {
	var out []Object
	for _, b := range Blocks(q) {
		if !gbpBlockLegal(b) {
			continue
		}
		for _, f := range b.From {
			if gbpItemLegal(b, f) {
				out = append(out, Object{Variants: 1, Block: b, From: f.ID})
			}
		}
	}
	return out
}

// Apply implements Rule.
func (r *GroupByPlacement) Apply(q *qtree.Query, o Object, variant int) error {
	// Materialize before the push: the table item migrates into the new
	// view and the block's expressions are rewritten in place, so neither
	// may still be shared with a copy-on-write base.
	b := q.Mutable(o.Block)
	f := b.FindFrom(o.From)
	if f == nil {
		return fmt.Errorf("group-by placement: from item %d not found", o.From)
	}
	return pushGroupBy(q, b, f)
}

func gbpBlockLegal(b *qtree.Block) bool {
	if b.IsSetOp() || !b.HasGroupBy() || b.GroupingSets != nil ||
		b.Distinct || b.Limit > 0 || len(b.From) < 2 {
		return false
	}
	for _, f := range b.From {
		if f.Kind != qtree.JoinInner || f.Lateral {
			return false
		}
	}
	// No subqueries anywhere in the block's own expressions (they would
	// need their references redirected too; keep the transformation
	// focused).
	return !blockHasSubqueries(b)
}

// gbpItemLegal reports whether from item f can host the pushed-down
// aggregation: every aggregate argument references only f, no distinct
// aggregates, and f is a base table.
func gbpItemLegal(b *qtree.Block, f *qtree.FromItem) bool {
	if !f.IsTable() {
		return false
	}
	legal := true
	sawAgg := false
	check := func(e qtree.Expr) {
		qtree.WalkExpr(e, func(x qtree.Expr) bool {
			a, ok := x.(*qtree.Agg)
			if !ok {
				return true
			}
			sawAgg = true
			if a.Distinct {
				legal = false
				return false
			}
			if a.Arg != nil && !refsOnly(a.Arg, map[qtree.FromID]bool{f.ID: true}) {
				legal = false
				return false
			}
			return false
		})
	}
	for _, it := range b.Select {
		check(it.Expr)
	}
	for _, h := range b.Having {
		check(h)
	}
	for _, o := range b.OrderBy {
		check(o.Expr)
	}
	return legal && sawAgg
}

// pushGroupBy pushes a partial aggregation onto table f.
func pushGroupBy(q *qtree.Query, b *qtree.Block, f *qtree.FromItem) error {
	if !gbpBlockLegal(b) || !gbpItemLegal(b, f) {
		return fmt.Errorf("group-by placement: not legal here")
	}
	// Collect the distinct aggregate specs.
	var specs []*qtree.Agg
	collect := func(e qtree.Expr) {
		qtree.WalkExpr(e, func(x qtree.Expr) bool {
			if a, ok := x.(*qtree.Agg); ok {
				if qtree.IndexOf(specs, a) < 0 {
					specs = append(specs, a)
				}
				return false
			}
			return true
		})
	}
	for _, it := range b.Select {
		collect(it.Expr)
	}
	for _, h := range b.Having {
		collect(h)
	}
	for _, o := range b.OrderBy {
		collect(o.Expr)
	}

	// Columns of f used outside aggregate arguments become the pushed
	// grouping key (join columns and outer grouping columns).
	keyOrds := []int{}
	keySet := map[int]bool{}
	var scanForKeys func(e qtree.Expr)
	scanForKeys = func(e qtree.Expr) {
		qtree.WalkExpr(e, func(x qtree.Expr) bool {
			if _, ok := x.(*qtree.Agg); ok {
				return false // aggregate arguments live inside the view
			}
			if c, ok := x.(*qtree.Col); ok && c.From == f.ID {
				if !keySet[c.Ord] {
					keySet[c.Ord] = true
					keyOrds = append(keyOrds, c.Ord)
				}
			}
			return true
		})
	}
	for _, it := range b.Select {
		scanForKeys(it.Expr)
	}
	for _, e := range b.Where {
		scanForKeys(e)
	}
	for _, g := range b.GroupBy {
		scanForKeys(g)
	}
	for _, h := range b.Having {
		scanForKeys(h)
	}
	for _, o := range b.OrderBy {
		scanForKeys(o.Expr)
	}

	// Build the pushed-down view over f.
	v := q.NewBlock()
	v.From = []*qtree.FromItem{f}
	// Single-table predicates on f move into the view.
	var keep []qtree.Expr
	for _, e := range b.Where {
		if refsOnly(e, map[qtree.FromID]bool{f.ID: true}) && !qtree.ContainsSubq(e) {
			v.Where = append(v.Where, e)
		} else {
			keep = append(keep, e)
		}
	}
	b.Where = keep

	for _, ord := range keyOrds {
		col := &qtree.Col{From: f.ID, Ord: ord, Name: f.ColName(ord)}
		v.GroupBy = append(v.GroupBy, col)
		v.Select = append(v.Select, qtree.SelectItem{Expr: col, Alias: f.ColName(ord)})
	}
	keyIndex := map[int]int{}
	for i, ord := range keyOrds {
		keyIndex[ord] = i
	}

	// Partial aggregates, and the outer compensation expression per spec.
	// The outer Col references carry the view column's alias for display.
	outerExpr := make([]qtree.Expr, len(specs))
	fvID := q.NewFromID()
	addPartial := func(a *qtree.Agg, alias string) int {
		ord := len(v.Select)
		v.Select = append(v.Select, qtree.SelectItem{Expr: a, Alias: alias})
		return ord
	}
	for i, a := range specs {
		switch a.Op {
		case qtree.AggSum, qtree.AggMin, qtree.AggMax:
			alias := fmt.Sprintf("P%d", i)
			ord := addPartial(&qtree.Agg{Op: a.Op, Arg: a.Arg}, alias)
			outerExpr[i] = &qtree.Agg{Op: compensate(a.Op), Arg: &qtree.Col{From: fvID, Ord: ord, Name: alias}}
		case qtree.AggCount:
			alias := fmt.Sprintf("P%d", i)
			var ord int
			if a.Star {
				ord = addPartial(&qtree.Agg{Op: qtree.AggCount, Star: true}, alias)
			} else {
				ord = addPartial(&qtree.Agg{Op: qtree.AggCount, Arg: a.Arg}, alias)
			}
			outerExpr[i] = &qtree.Agg{Op: qtree.AggSum, Arg: &qtree.Col{From: fvID, Ord: ord, Name: alias}}
		case qtree.AggAvg:
			sumAlias := fmt.Sprintf("P%dS", i)
			cntAlias := fmt.Sprintf("P%dC", i)
			sumOrd := addPartial(&qtree.Agg{Op: qtree.AggSum, Arg: a.Arg}, sumAlias)
			cntOrd := addPartial(&qtree.Agg{Op: qtree.AggCount, Arg: qtree.CloneExpr(q, a.Arg)}, cntAlias)
			outerExpr[i] = &qtree.Bin{
				Op: qtree.OpDiv,
				L:  &qtree.Agg{Op: qtree.AggSum, Arg: &qtree.Col{From: fvID, Ord: sumOrd, Name: sumAlias}},
				R:  &qtree.Agg{Op: qtree.AggSum, Arg: &qtree.Col{From: fvID, Ord: cntOrd, Name: cntAlias}},
			}
		}
	}

	// Swap the table for the view in the from list.
	fv := &qtree.FromItem{ID: fvID, Alias: "VW_GBP_" + f.Alias, View: v}
	for i, it := range b.From {
		if it == f {
			b.From[i] = fv
			break
		}
	}

	// Rewrite the outer block: aggregates become compensation expressions;
	// plain f columns become view key outputs.
	qtree.RewriteBlockExprs(b, func(x qtree.Expr) qtree.Expr {
		if a, ok := x.(*qtree.Agg); ok {
			if i := qtree.IndexOf(specs, a); i >= 0 {
				return qtree.CloneExpr(q, outerExpr[i])
			}
			return nil
		}
		if c, ok := x.(*qtree.Col); ok && c.From == f.ID {
			if idx, ok := keyIndex[c.Ord]; ok {
				return &qtree.Col{From: fvID, Ord: idx, Name: c.Name}
			}
		}
		return nil
	})
	return nil
}

// compensate maps a partial aggregate to its combining aggregate.
func compensate(op qtree.AggOp) qtree.AggOp {
	switch op {
	case qtree.AggSum, qtree.AggCount:
		return qtree.AggSum
	case qtree.AggMin:
		return qtree.AggMin
	case qtree.AggMax:
		return qtree.AggMax
	}
	return qtree.AggSum
}

package transform

import (
	"fmt"

	"repro/internal/qtree"
)

// SetOpIntoJoin converts MINUS and INTERSECT into antijoin and semijoin
// respectively (§2.2.7). Nulls match in set-operation semantics, so the
// join condition uses null-safe equality; the duplicate-free result is
// produced by a DISTINCT whose placement — at the join output or at the
// join input — is the cost-based decision (two variants, like distinct
// placement).
type SetOpIntoJoin struct{}

// Name implements Rule.
func (*SetOpIntoJoin) Name() string { return "set operators into joins" }

// Find implements Rule. Variant 1 removes duplicates at the join output;
// variant 2 removes them at the left input.
func (r *SetOpIntoJoin) Find(q *qtree.Query) []Object {
	var out []Object
	for _, b := range Blocks(q) {
		if setOpConvertible(b) {
			out = append(out, Object{Variants: 2, Block: b})
		}
	}
	return out
}

// setOpConvertible reports whether b is an INTERSECT or MINUS of two
// SELECT blocks (nested set operations would need their own conversion
// first).
func setOpConvertible(b *qtree.Block) bool {
	return b.Set != nil && len(b.Set.Children) == 2 &&
		(b.Set.Kind == qtree.SetIntersect || b.Set.Kind == qtree.SetMinus) &&
		!b.Set.Children[0].IsSetOp() && !b.Set.Children[1].IsSetOp()
}

// Apply implements Rule.
func (r *SetOpIntoJoin) Apply(q *qtree.Query, o Object, variant int) error {
	b := q.Resolve(o.Block)
	if !setOpConvertible(b) {
		return fmt.Errorf("set-op into join: block %d is no longer a convertible set operation", b.ID)
	}
	b = q.Mutable(b)
	kind := b.Set.Kind
	c1, c2 := b.Set.Children[0], b.Set.Children[1]
	outNames := b.OutCols()

	f1 := &qtree.FromItem{ID: q.NewFromID(), Alias: "SET_L", View: c1}
	f2 := &qtree.FromItem{ID: q.NewFromID(), Alias: "SET_R", View: c2}
	if kind == qtree.SetIntersect {
		f2.Kind = qtree.JoinSemi
	} else {
		f2.Kind = qtree.JoinAnti
	}
	n := len(c1.OutCols())
	for i := 0; i < n; i++ {
		f2.Cond = append(f2.Cond, &qtree.Bin{
			Op: qtree.OpNullSafeEq,
			L:  &qtree.Col{From: f1.ID, Ord: i, Name: outNames[i]},
			R:  &qtree.Col{From: f2.ID, Ord: i, Name: outNames[i]},
		})
	}

	b.Set = nil
	b.From = []*qtree.FromItem{f1, f2}
	b.Select = nil
	for i := 0; i < n; i++ {
		b.Select = append(b.Select, qtree.SelectItem{
			Expr:  &qtree.Col{From: f1.ID, Ord: i, Name: outNames[i]},
			Alias: outNames[i],
		})
	}
	switch variant {
	case 2:
		// Duplicates removed at the input: the left view becomes DISTINCT.
		// The child may still be shared with the base; it is reachable here
		// through b.From[0].View, so materialization relinks that slot.
		c1 = q.Mutable(c1)
		c1.Distinct = true
	default:
		// Duplicates removed at the output.
		b.Distinct = true
	}
	// Set-operation ORDER BY entries reference output ordinals; rewrite to
	// the new select expressions.
	for i := range b.OrderBy {
		if c, ok := b.OrderBy[i].Expr.(*qtree.Col); ok && c.From == 0 {
			b.OrderBy[i].Expr = qtree.CloneExpr(q, b.Select[c.Ord].Expr)
		}
	}
	return nil
}

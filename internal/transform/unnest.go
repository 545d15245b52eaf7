package transform

import (
	"errors"
	"fmt"

	"repro/internal/qtree"
)

// UnnestSubquery is the cost-based flavour of subquery unnesting (§2.2.1):
// unnesting that generates inline views. It covers
//
//   - correlated aggregate scalar subqueries, which unnest into a group-by
//     inline view joined on the correlation columns (Q1 -> Q10);
//   - multi-table (or grouped) EXISTS/IN subqueries, which unnest into a
//     view joined by semijoin;
//   - multi-table NOT EXISTS / NOT IN subqueries, which unnest into a view
//     joined by (null-aware) antijoin.
//
// For aggregate subqueries the rule offers a second variant that interleaves
// group-by view merging with the unnesting (§3.3.1): unnest and then merge
// the generated view into the outer block (Q10 -> Q11).
type UnnestSubquery struct {
	// NoInterleave disables the interleaved unnest+merge variant (§3.3.1);
	// the ablation benchmarks use it to measure what interleaving buys.
	NoInterleave bool
}

// Name implements Rule.
func (*UnnestSubquery) Name() string { return "subquery unnesting" }

type unnestKind uint8

const (
	unnestAgg unnestKind = iota
	unnestSemi
	unnestAnti
)

// Find implements Rule.
func (r *UnnestSubquery) Find(q *qtree.Query) []Object {
	var out []Object
	for _, b := range Blocks(q) {
		if b.IsSetOp() {
			continue
		}
		for wi, e := range b.Where {
			s, kind, ok := classifyUnnest(b, e)
			if !ok {
				continue
			}
			o := Object{Variants: 1, Block: b, Where: wi, Sub: s.Block.ID, kind: kind}
			if kind == unnestAgg && !r.NoInterleave {
				o.Variants = 2 // unnest; unnest + interleaved view merge
			}
			out = append(out, o)
		}
	}
	return out
}

// Apply implements Rule.
func (r *UnnestSubquery) Apply(q *qtree.Query, o Object, variant int) error {
	b, s, err := unnestSite(q, o)
	if err != nil {
		return err
	}
	if o.kind != unnestAgg {
		return unnestToJoinView(q, b, o.Where, s)
	}
	fv, err := unnestAggSubquery(q, b, o.Where, s)
	if err != nil || variant != 2 {
		return err
	}
	// The unnest materialized b under copy-on-write; merge into its
	// current incarnation.
	return mergeGroupByView(q, q.Resolve(b), fv)
}

// unnestSite locates unnesting object o in q: its block's current
// incarnation and the subquery its conjunct holds now.
func unnestSite(q *qtree.Query, o Object) (*qtree.Block, *qtree.Subq, error) {
	b := q.Resolve(o.Block)
	if o.Where < len(b.Where) {
		sides := [2]qtree.Expr{b.Where[o.Where]}
		if bin, ok := sides[0].(*qtree.Bin); ok {
			sides = [2]qtree.Expr{bin.R, bin.L}
		}
		for _, e := range sides {
			if s, ok := e.(*qtree.Subq); ok && s.Block.ID == o.Sub {
				return b, s, nil
			}
		}
	}
	return nil, nil, fmt.Errorf("unnest: subquery block %d is no longer at conjunct %d of block %d", o.Sub, o.Where, b.ID)
}

// classifyUnnest decides whether conjunct e of block b is unnestable in a
// cost-based way and how, returning the subquery to unnest.
func classifyUnnest(b *qtree.Block, e qtree.Expr) (*qtree.Subq, unnestKind, bool) {
	// Correlated aggregate scalar subquery inside a comparison.
	if bin, ok := e.(*qtree.Bin); ok && bin.Op.IsComparison() {
		if s, ok := bin.R.(*qtree.Subq); ok && s.Kind == qtree.SubqScalar {
			if aggUnnestLegal(b, s) {
				return s, unnestAgg, true
			}
		}
		if s, ok := bin.L.(*qtree.Subq); ok && s.Kind == qtree.SubqScalar {
			if aggUnnestLegal(b, s) {
				return s, unnestAgg, true
			}
		}
		return nil, 0, false
	}
	s, ok := e.(*qtree.Subq)
	if !ok {
		return nil, 0, false
	}
	switch s.Kind {
	case qtree.SubqIn, qtree.SubqExists:
		if joinUnnestLegal(b, s) {
			return s, unnestSemi, true
		}
	case qtree.SubqNotIn, qtree.SubqNotExists:
		if joinUnnestLegal(b, s) && notInNullSafe(b, s) {
			return s, unnestAnti, true
		}
	}
	return nil, 0, false
}

// corrPred decomposes conjunct e of the subquery as "innerExpr = outerExpr"
// where innerExpr references only the subquery's relations and outerExpr
// references only outer ones.
func corrPred(e qtree.Expr, defined map[qtree.FromID]bool) (inner, outer qtree.Expr, ok bool) {
	bin, isBin := e.(*qtree.Bin)
	if !isBin || bin.Op != qtree.OpEq {
		return nil, nil, false
	}
	lIn, lOut := sideRefs(bin.L, defined)
	rIn, rOut := sideRefs(bin.R, defined)
	switch {
	case lIn && !lOut && rOut && !rIn:
		return bin.L, bin.R, true
	case rIn && !rOut && lOut && !lIn:
		return bin.R, bin.L, true
	}
	return nil, nil, false
}

// sideRefs reports whether e references subquery-local relations and
// whether it references outer relations.
func sideRefs(e qtree.Expr, defined map[qtree.FromID]bool) (localRefs, outerRefs bool) {
	qtree.ExprCols(e, func(c *qtree.Col) {
		if defined[c.From] {
			localRefs = true
		} else {
			outerRefs = true
		}
	})
	return
}

// aggUnnestLegal checks Q1-style legality: a correlated scalar aggregate
// subquery whose correlation consists solely of equality predicates.
func aggUnnestLegal(b *qtree.Block, s *qtree.Subq) bool {
	sub := s.Block
	if sub.IsSetOp() || sub.Distinct || len(sub.GroupBy) > 0 || sub.Limit > 0 ||
		len(sub.OrderBy) > 0 || len(sub.Having) > 0 || len(sub.Select) != 1 {
		return false
	}
	agg, ok := sub.Select[0].Expr.(*qtree.Agg)
	if !ok {
		return false
	}
	// COUNT over an empty group yields 0 under TIS but no row after
	// unnesting; restrict to aggregates that are NULL on empty input.
	if agg.Op == qtree.AggCount {
		return false
	}
	if !sub.IsCorrelated() {
		return false // uncorrelated scalar subqueries execute once; leave
	}
	if !correlatedToParentOnly(b, sub) {
		return false
	}
	defined := sub.Defined()
	nCorr := 0
	for _, e := range sub.Where {
		if _, _, ok := corrPred(e, defined); ok {
			nCorr++
			continue
		}
		// Non-correlation predicates must be purely local.
		if _, outer := sideRefs(e, defined); outer {
			return false
		}
		if qtree.ContainsSubq(e) {
			return false
		}
	}
	if nCorr == 0 {
		return false
	}
	// The aggregate argument and from items must be purely local.
	if agg.Arg != nil {
		if _, outer := sideRefs(agg.Arg, defined); outer {
			return false
		}
	}
	for _, f := range sub.From {
		if f.Kind != qtree.JoinInner || f.Lateral {
			return false
		}
	}
	return true
}

// unnestAggSubquery transforms Q1 into Q10: the aggregate subquery becomes
// a group-by inline view joined on the correlation columns. It returns the
// new from item so interleaving can merge it further.
func unnestAggSubquery(q *qtree.Query, b *qtree.Block, wi int, s *qtree.Subq) (*qtree.FromItem, error) {
	b = q.Mutable(b)
	// Materializing the subquery block rebuilds the conjunct's expression
	// spine under copy-on-write, so the comparison is re-fetched after.
	sub := q.Mutable(s.Block)
	bin, ok := b.Where[wi].(*qtree.Bin)
	if !ok {
		return nil, fmt.Errorf("transform: aggregate-subquery site %d is %T, want *qtree.Bin", wi, b.Where[wi])
	}
	defined := sub.Defined()

	v := q.NewBlock()
	v.From = sub.From
	var corrInner, corrOuter []qtree.Expr
	for _, e := range sub.Where {
		if in, out, ok := corrPred(e, defined); ok {
			corrInner = append(corrInner, in)
			corrOuter = append(corrOuter, out)
			continue
		}
		v.Where = append(v.Where, e)
	}
	if len(corrInner) == 0 {
		return nil, errors.New("unnest: no correlation predicates")
	}
	v.Select = append(v.Select, qtree.SelectItem{Expr: sub.Select[0].Expr, Alias: "AGG_VAL"})
	for i, in := range corrInner {
		v.GroupBy = append(v.GroupBy, in)
		v.Select = append(v.Select, qtree.SelectItem{Expr: in, Alias: fmt.Sprintf("G%d", i)})
	}

	fv := &qtree.FromItem{ID: q.NewFromID(), Alias: fmt.Sprintf("VW_SQ_%d", v.ID), View: v}
	b.From = append(b.From, fv)

	// Replace the scalar subquery in the comparison with the view's
	// aggregate output. The conjunct slot gets a fresh comparison node —
	// the old node may be shared with the copy-on-write base.
	aggCol := &qtree.Col{From: fv.ID, Ord: 0, Name: "AGG_VAL"}
	nbin := &qtree.Bin{Op: bin.Op, L: bin.L, R: bin.R}
	if _, ok := nbin.L.(*qtree.Subq); ok {
		nbin.L = aggCol
	} else {
		nbin.R = aggCol
	}
	b.Where[wi] = nbin
	// Join the view on the correlation columns.
	for i, out := range corrOuter {
		b.Where = append(b.Where, &qtree.Bin{
			Op: qtree.OpEq,
			L:  &qtree.Col{From: fv.ID, Ord: i + 1, Name: fmt.Sprintf("G%d", i)},
			R:  out,
		})
	}
	return fv, nil
}

// joinUnnestLegal checks the view-generating unnesting legality for
// IN/EXISTS/NOT IN/NOT EXISTS subqueries. Single-table SPJ subqueries are
// excluded — the imperative merge flavour (§2.1.1) already handles them.
func joinUnnestLegal(b *qtree.Block, s *qtree.Subq) bool {
	sub := s.Block
	if sub.IsSetOp() || sub.Limit > 0 || len(sub.OrderBy) > 0 {
		return false
	}
	// The imperative rule covers plain single-table subqueries.
	if len(sub.From) == 1 && sub.From[0].IsTable() && !sub.Distinct &&
		!sub.HasGroupBy() && !blockHasSubqueries(sub) {
		return false
	}
	for _, f := range sub.From {
		if f.Kind != qtree.JoinInner || f.Lateral {
			return false
		}
	}
	if blockHasSubqueries(sub) || sub.HasWindowFuncs() {
		return false
	}
	if !correlatedToParentOnly(b, sub) {
		return false
	}
	defined := sub.Defined()
	if sub.HasGroupBy() || sub.Distinct {
		// Correlation cannot be pulled above grouping; require an
		// uncorrelated subquery.
		if sub.IsCorrelated() {
			return false
		}
		if len(sub.Having) > 0 {
			return false
		}
		return true
	}
	// Every correlated predicate must be pullable (equality with clean
	// sides).
	for _, e := range sub.Where {
		if _, outer := sideRefs(e, defined); !outer {
			continue
		}
		if _, _, ok := corrPred(e, defined); !ok {
			return false
		}
	}
	return true
}

// notInNullSafe rejects NOT IN unnesting with multi-item connecting
// conditions over possibly null columns (§2.1.1).
func notInNullSafe(b *qtree.Block, s *qtree.Subq) bool {
	if s.Kind != qtree.SubqNotIn {
		return true // NOT EXISTS has no connecting condition issue
	}
	if len(s.Left) == 1 {
		return true // single item: null-aware antijoin handles nulls
	}
	for i, le := range s.Left {
		if !leftNonNull(b, le) || !selectNonNull(s.Block, i) {
			return false
		}
	}
	return true
}

// unnestToJoinView transforms a multi-table (or grouped) quantified
// subquery into an inline view joined by semijoin or (null-aware) antijoin.
func unnestToJoinView(q *qtree.Query, b *qtree.Block, wi int, s *qtree.Subq) error {
	b = q.Mutable(b)
	// The subquery's from items and grouping move into the new view, so its
	// block must be private before the move.
	sub := q.Mutable(s.Block)
	defined := sub.Defined()

	v := q.NewBlock()
	v.From = sub.From
	v.Distinct = sub.Distinct
	v.GroupBy = sub.GroupBy
	v.GroupingSets = sub.GroupingSets
	v.Having = sub.Having
	v.Select = append([]qtree.SelectItem(nil), sub.Select...)

	strict := s.Kind == qtree.SubqNotIn && len(s.Left) == 1 &&
		(!leftNonNull(b, s.Left[0]) || !selectNonNull(sub, 0))

	var conds []qtree.Expr
	// Connecting conditions on the subquery's select list.
	for i, le := range s.Left {
		conds = append(conds, &qtree.Bin{
			Op: qtree.OpEq,
			L:  le,
			R:  &qtree.Col{From: 0, Ord: i, Name: "C"}, // placeholder, fixed below
		})
	}
	// Pull correlated predicates out as join conditions, exposing the
	// inner side as extra view outputs.
	for _, e := range sub.Where {
		in, out, ok := corrPred(e, defined)
		if !ok {
			v.Where = append(v.Where, e)
			continue
		}
		ord := len(v.Select)
		v.Select = append(v.Select, qtree.SelectItem{Expr: in, Alias: fmt.Sprintf("C%d", ord)})
		var cond qtree.Expr = &qtree.Bin{
			Op: qtree.OpEq,
			L:  &qtree.Col{From: 0, Ord: ord, Name: "C"}, // fixed below
			R:  out,
		}
		if strict {
			// Under a null-aware antijoin, the subquery's own predicates
			// (correlation included) are strict.
			cond = &qtree.IsTrue{E: cond}
		}
		conds = append(conds, cond)
	}

	fv := &qtree.FromItem{ID: q.NewFromID(), Alias: fmt.Sprintf("VW_SQ_%d", v.ID), View: v}
	// Fix the placeholder view references now that the ID exists.
	for i := range conds {
		conds[i] = qtree.RewriteExpr(conds[i], func(x qtree.Expr) qtree.Expr {
			if c, ok := x.(*qtree.Col); ok && c.From == 0 {
				return &qtree.Col{From: fv.ID, Ord: c.Ord, Name: c.Name}
			}
			return nil
		})
	}
	fv.Cond = conds

	switch s.Kind {
	case qtree.SubqIn, qtree.SubqExists:
		fv.Kind = qtree.JoinSemi
	case qtree.SubqNotExists:
		fv.Kind = qtree.JoinAnti
	case qtree.SubqNotIn:
		fv.Kind = qtree.JoinNullAwareAnti
		if !strict {
			fv.Kind = qtree.JoinAnti
		}
	}
	removeWhereAt(b, wi)
	b.From = append(b.From, fv)
	return nil
}

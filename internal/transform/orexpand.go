package transform

import (
	"fmt"

	"repro/internal/qtree"
)

// OrExpansion converts a disjunctive predicate into a UNION ALL of
// branches, one per disjunct (§2.2.8). Branch k keeps disjunct k and adds
// LNNVL(disjunct j) for every earlier disjunct, so the branches are
// disjoint and their union equals the original result under SQL
// three-valued semantics.
type OrExpansion struct{}

// Name implements Rule.
func (*OrExpansion) Name() string { return "disjunction into UNION ALL" }

// Find implements Rule.
func (r *OrExpansion) Find(q *qtree.Query) []Object {
	var out []Object
	for _, b := range Blocks(q) {
		for wi := range b.Where {
			if orExpandable(b, wi) {
				out = append(out, Object{Variants: 1, Block: b, Where: wi})
			}
		}
	}
	return out
}

// orExpandable reports whether conjunct wi of b is a disjunction worth
// expanding in a block whose result a UNION ALL of branches can replace.
func orExpandable(b *qtree.Block, wi int) bool {
	if b.IsSetOp() || b.Distinct || b.HasGroupBy() || b.Limit > 0 || len(b.OrderBy) > 0 ||
		b.HasWindowFuncs() || wi >= len(b.Where) {
		return false
	}
	e := b.Where[wi]
	if len(splitOr(e)) < 2 || qtree.ContainsSubq(e) {
		return false
	}
	// Each disjunct should constrain at least one local relation,
	// otherwise the expansion cannot open new access paths.
	local := b.LocalFromIDs()
	for _, d := range splitOr(e) {
		hasLocal := false
		qtree.ExprCols(d, func(c *qtree.Col) { hasLocal = hasLocal || local[c.From] })
		if !hasLocal {
			return false
		}
	}
	return true
}

// splitOr splits an expression on top-level ORs.
func splitOr(e qtree.Expr) []qtree.Expr {
	if b, ok := e.(*qtree.Bin); ok && b.Op == qtree.OpOr {
		return append(splitOr(b.L), splitOr(b.R)...)
	}
	return []qtree.Expr{e}
}

// Apply implements Rule.
//
// Find only names conjuncts of blocks without a set operation, so a
// resolved block that is a UNION ALL header is one that an earlier
// application in the same state expanded along a later disjunction. Every
// branch of that header keeps conjunct o.Where in place (a later conjunct
// was replaced), so Apply expands it in every branch and the header's
// branches become their concatenation: each combination of disjuncts once.
func (r *OrExpansion) Apply(q *qtree.Query, o Object, variant int) error {
	wi := o.Where
	for _, src := range expansionSources(q.Resolve(o.Block)) {
		if !orExpandable(src, wi) {
			return fmt.Errorf("or expansion: conjunct %d of block %d is no longer expandable", wi, o.Block.ID)
		}
	}
	// The block becomes (or stays) a pure set-op header; materialize it
	// first so the branch clones and the header rewrite never touch a
	// shared block.
	b := q.Mutable(o.Block)

	var children []*qtree.Block
	for _, src := range expansionSources(b) {
		for k := range splitOr(src.Where[wi]) {
			clone := qtree.CloneBlockInto(src, q)
			ds := splitOr(clone.Where[wi])
			// Replace the OR conjunct with disjunct k plus LNNVL guards for
			// the earlier disjuncts.
			newWhere := append([]qtree.Expr(nil), clone.Where[:wi]...)
			newWhere = append(newWhere, ds[k])
			for j := 0; j < k; j++ {
				newWhere = append(newWhere, &qtree.LNNVL{E: ds[j]})
			}
			newWhere = append(newWhere, clone.Where[wi+1:]...)
			clone.Where = newWhere
			children = append(children, clone)
		}
	}

	b.Set = &qtree.SetOp{Kind: qtree.SetUnionAll, Children: children}
	b.Select = nil
	b.From = nil
	b.Where = nil
	return nil
}

// expansionSources lists the blocks that hold the conjunct Apply expands:
// b itself, or every branch of the UNION ALL header an earlier expansion
// made of b.
func expansionSources(b *qtree.Block) []*qtree.Block {
	if b.Set != nil {
		return b.Set.Children
	}
	return []*qtree.Block{b}
}

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

type orObj struct {
	block *qtree.Block
	where int
}

func (r *OrExpansion) objects(q *qtree.Query) []orObj {
	var out []orObj
	for _, b := range Blocks(q) {
		if b.IsSetOp() || b.Distinct || b.HasGroupBy() || b.Limit > 0 || len(b.OrderBy) > 0 ||
			b.HasWindowFuncs() {
			continue
		}
		for wi, e := range b.Where {
			if len(splitOr(e)) < 2 {
				continue
			}
			if containsSubq(e) {
				continue
			}
			// Each disjunct should constrain at least one local relation,
			// otherwise the expansion cannot open new access paths.
			useful := true
			local := b.LocalFromIDs()
			for _, d := range splitOr(e) {
				hasLocal := false
				qtree.ExprCols(d, func(c *qtree.Col) { hasLocal = hasLocal || local[c.From] })
				if !hasLocal {
					useful = false
				}
			}
			if useful {
				out = append(out, orObj{block: b, where: wi})
			}
		}
	}
	return out
}

// splitOr splits an expression on top-level ORs.
func splitOr(e qtree.Expr) []qtree.Expr {
	if b, ok := e.(*qtree.Bin); ok && b.Op == qtree.OpOr {
		return append(splitOr(b.L), splitOr(b.R)...)
	}
	return []qtree.Expr{e}
}

// Find implements Rule.
func (r *OrExpansion) Find(q *qtree.Query) int { return len(r.objects(q)) }

// Variants implements Rule.
func (r *OrExpansion) Variants(q *qtree.Query, obj int) int { return 1 }

// Apply implements Rule.
func (r *OrExpansion) Apply(q *qtree.Query, obj, variant int) error {
	objs := r.objects(q)
	if obj >= len(objs) {
		return fmt.Errorf("or expansion: object %d out of range", obj)
	}
	// The block becomes a pure set-op header; materialize it first so the
	// branch clones and the header rewrite never touch a shared block.
	b := q.Mutable(objs[obj].block)
	wi := objs[obj].where
	nBranches := len(splitOr(b.Where[wi]))

	var children []*qtree.Block
	for k := 0; k < nBranches; k++ {
		clone := qtree.CloneBlockInto(b, q)
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

	b.Set = &qtree.SetOp{Kind: qtree.SetUnionAll, Children: children}
	b.Select = nil
	b.From = nil
	b.Where = nil
	return nil
}

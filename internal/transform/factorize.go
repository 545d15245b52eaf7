package transform

import (
	"fmt"
	"maps"
	"slices"
	"sort"

	"repro/internal/qtree"
)

// JoinFactorization pulls a join table that is common to every branch of a
// UNION ALL out of the branches (§2.2.5, Q14 -> Q15): the common table is
// joined once to a view containing the UNION ALL of the branch remainders,
// avoiding repeated scans of the common table.
//
// Variant 1 pulls the join predicates out with the table, which requires
// them to have the same shape in every branch. Variant 2 implements the
// extension the paper describes for the cases "where the common tables can
// be factorised out but the corresponding join predicates cannot be pulled
// out": the predicates stay inside the UNION ALL view, which is then
// joined laterally by the join-predicate-pushdown technique.
type JoinFactorization struct{}

// Name implements Rule.
func (*JoinFactorization) Name() string { return "join factorization" }

// Find implements Rule. The lateral form is legal wherever the table can
// be factored out at all. When the strict form is legal too, variant 1
// pulls the join predicates out (Q15) and variant 2 leaves them in the
// branches with a lateral join; otherwise the lateral form is variant 1.
func (r *JoinFactorization) Find(q *qtree.Query) []Object {
	var out []Object
	for _, b := range Blocks(q) {
		if b.Set == nil || b.Set.Kind != qtree.SetUnionAll || len(b.Set.Children) < 2 {
			continue
		}
		if b.Limit > 0 || len(b.OrderBy) > 0 {
			continue
		}
		seen := map[string]bool{}
		first := b.Set.Children[0]
		if first.IsSetOp() {
			continue
		}
		var names []string
		for _, f := range first.From {
			if f.IsTable() && f.Kind == qtree.JoinInner && !seen[f.Table.Name] {
				seen[f.Table.Name] = true
				names = append(names, f.Table.Name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			if plans, strict := analyzeFactorization(b, name); plans != nil {
				out = append(out, Object{Block: b, table: name}.withForms(strict, true))
			}
		}
	}
	return out
}

// branchPlan describes how one branch participates in the factorization.
type branchPlan struct {
	item      *qtree.FromItem
	joinWhere []int // where indexes of the table's join predicates
	joinOrds  []int // table column ordinal per join predicate (sorted)
	joinExprs []qtree.Expr
	selOrds   map[int]int // select position -> table column ordinal
}

// analyzeFactorization walks every branch once and returns the per-branch
// plans for factoring table name out, nil when the table cannot be factored
// out, and whether the strict form is legal. Both forms need, in every
// branch, a plain SPJ block with exactly one inner occurrence of the table,
// no non-inner join condition on it (the table leaves the branch, so the
// condition would be left dangling or, correlated, change meaning), and
// select positions that reference it as plain columns at the same
// ordinals. The lateral form leaves the join predicates in the branches,
// so they may have any shape. The strict form moves them out: every
// conjunct touching the table must be an equality between a table column
// and a table-free expression, on the same column ordinals in every branch
// (single-table filters on the table would have to match across branches;
// kept out of scope).
func analyzeFactorization(b *qtree.Block, name string) (plans []branchPlan, strict bool) {
	strict = true
	for bi, br := range b.Set.Children {
		if br.IsSetOp() || br.Distinct || br.HasGroupBy() || br.Limit > 0 ||
			len(br.OrderBy) > 0 || blockHasSubqueries(br) || br.HasWindowFuncs() {
			return nil, false
		}
		var item *qtree.FromItem
		for _, f := range br.From {
			if f.IsTable() && f.Table.Name == name && f.Kind == qtree.JoinInner {
				if item != nil {
					return nil, false
				}
				item = f
			}
		}
		if item == nil || len(br.From) < 2 || outerCondRefers(br, item) {
			return nil, false
		}
		p := branchPlan{item: item, selOrds: map[int]int{}}
		for si, it := range br.Select {
			if !refersTo(it.Expr, item.ID) {
				continue
			}
			ord, isCol := colOfTable(it.Expr, item.ID)
			if !isCol {
				return nil, false
			}
			p.selOrds[si] = ord
		}
		if bi > 0 && !maps.Equal(plans[0].selOrds, p.selOrds) {
			return nil, false
		}
		strict = strict && p.joinPreds(br) && (bi == 0 || slices.Equal(plans[0].joinOrds, p.joinOrds))
		plans = append(plans, p)
	}
	return plans, strict
}

// joinPreds fills the plan's join predicates, sorted by table column
// ordinal, and reports whether every conjunct of br touching the table is
// one (at least one must be).
func (p *branchPlan) joinPreds(br *qtree.Block) bool {
	type jp struct {
		ord  int
		expr qtree.Expr
		wi   int
	}
	var jps []jp
	for wi, e := range br.Where {
		if !refersTo(e, p.item.ID) {
			continue
		}
		bin, ok := e.(*qtree.Bin)
		if !ok || bin.Op != qtree.OpEq {
			return false
		}
		if ord, isT := colOfTable(bin.L, p.item.ID); isT && !refersTo(bin.R, p.item.ID) {
			jps = append(jps, jp{ord: ord, expr: bin.R, wi: wi})
			continue
		}
		if ord, isT := colOfTable(bin.R, p.item.ID); isT && !refersTo(bin.L, p.item.ID) {
			jps = append(jps, jp{ord: ord, expr: bin.L, wi: wi})
			continue
		}
		return false
	}
	sort.SliceStable(jps, func(i, j int) bool { return jps[i].ord < jps[j].ord })
	for _, x := range jps {
		p.joinOrds = append(p.joinOrds, x.ord)
		p.joinExprs = append(p.joinExprs, x.expr)
		p.joinWhere = append(p.joinWhere, x.wi)
	}
	return len(jps) > 0
}

// outerCondRefers reports whether a join condition of another item of br
// (a non-inner join's) references item.
func outerCondRefers(br *qtree.Block, item *qtree.FromItem) bool {
	for _, f := range br.From {
		if f == item {
			continue
		}
		for _, c := range f.Cond {
			if refersTo(c, item.ID) {
				return true
			}
		}
	}
	return false
}

// factorizationSite returns q's UNION ALL block that object o factors its
// table out of, or nil when there is none. Find only names UNION ALL
// blocks, so a resolved block without a set operation is one that an
// earlier application in the same state factored another common table out
// of: the UNION ALL now sits in the view that block joins last (VW_JF or
// VW_JF_L), and o factors its table out of that view instead.
func factorizationSite(q *qtree.Query, o Object) *qtree.Block {
	b := q.Resolve(o.Block)
	for b.Set == nil && len(b.From) == 2 && b.From[1].View != nil {
		b = b.From[1].View
	}
	if b.Set == nil || b.Set.Kind != qtree.SetUnionAll || len(b.Set.Children) < 2 {
		return nil
	}
	return b
}

// Apply implements Rule. Both forms move one copy of the common table to
// the block, which becomes a join of the table with a view over the UNION
// ALL of the branch remainders (VW_JF). The strict form also moves the join
// predicates out: each branch exposes their other sides as extra outputs
// the block joins on. The lateral form (VW_JF_L) leaves them in the
// branches, redirected to the pulled-out table, exactly the JPPD-based
// technique §2.2.5 sketches for non-pullable predicates.
func (r *JoinFactorization) Apply(q *qtree.Query, o Object, variant int) error {
	form := o.form(variant)
	if form == 0 {
		return fmt.Errorf("join factorization: no variant %d for table %s", variant, o.table)
	}
	lateral := form == formSecond
	b := factorizationSite(q, o)
	if b == nil {
		return fmt.Errorf("join factorization: block %d is no longer a UNION ALL", o.Block.ID)
	}
	b = q.Mutable(b)
	plans, strict := analyzeFactorization(b, o.table)
	if plans == nil || !lateral && !strict {
		return fmt.Errorf("join factorization: no longer legal")
	}
	children := b.Set.Children
	outNames := b.OutCols()
	nOut := len(children[0].Select)
	// The common table moves to the outer block; copy the item so the new
	// tree never aliases a from-item struct still held by a shared branch.
	tItem := copyFromItem(plans[0].item)
	nJoin := len(plans[0].joinOrds)

	// Rewrite each branch: drop the table and null out its select
	// positions (the block reads those columns from the table directly).
	// Materializing a branch relinks it into b.Set.Children, which
	// `children` aliases, so the slice stays current.
	for bi, br := range children {
		p := plans[bi]
		redirect := lateral && p.item.ID != tItem.ID
		if redirect {
			// The redirect below rewrites the branch's whole subtree.
			br = q.MutableDeep(br)
		} else {
			br = q.Mutable(br)
		}
		removeFromItem(br, p.item.ID)
		for si := range p.selOrds {
			br.Select[si].Expr = &qtree.Const{} // dead position, NULL
		}
		if redirect {
			// Redirect this branch's references to the pulled-out item.
			old := p.item.ID
			qtree.RewriteBlockExprsDeep(br, func(e qtree.Expr) qtree.Expr {
				if c, ok := e.(*qtree.Col); ok && c.From == old {
					return &qtree.Col{From: tItem.ID, Ord: c.Ord, Name: c.Name}
				}
				return nil
			})
		}
		if lateral {
			continue
		}
		// Strict: drop the join predicates and expose their other sides.
		drop := map[int]bool{}
		for _, wi := range p.joinWhere {
			drop[wi] = true
		}
		var keep []qtree.Expr
		for wi, e := range br.Where {
			if !drop[wi] {
				keep = append(keep, e)
			}
		}
		br.Where = keep
		for k := 0; k < nJoin; k++ {
			br.Select = append(br.Select, qtree.SelectItem{
				Expr:  p.joinExprs[k],
				Alias: fmt.Sprintf("JF%d", k),
			})
		}
	}

	// The block becomes a join of the common table with the UNION ALL view.
	vBlock := q.NewBlock()
	vBlock.Set = &qtree.SetOp{Kind: qtree.SetUnionAll, Children: children}
	vItem := &qtree.FromItem{ID: q.NewFromID(), Alias: "VW_JF", View: vBlock}
	if lateral {
		vItem.Alias, vItem.Lateral = "VW_JF_L", true
	}

	b.Set = nil
	b.From = []*qtree.FromItem{tItem, vItem}
	b.Where = nil
	for k := 0; k < nJoin && !lateral; k++ {
		b.Where = append(b.Where, &qtree.Bin{
			Op: qtree.OpEq,
			L:  &qtree.Col{From: tItem.ID, Ord: plans[0].joinOrds[k], Name: tItem.ColName(plans[0].joinOrds[k])},
			R:  &qtree.Col{From: vItem.ID, Ord: nOut + k, Name: fmt.Sprintf("JF%d", k)},
		})
	}
	b.Select = nil
	for si := 0; si < nOut; si++ {
		var e qtree.Expr
		if ord, fromT := plans[0].selOrds[si]; fromT {
			e = &qtree.Col{From: tItem.ID, Ord: ord, Name: tItem.ColName(ord)}
		} else {
			e = &qtree.Col{From: vItem.ID, Ord: si, Name: outNames[si]}
		}
		b.Select = append(b.Select, qtree.SelectItem{Expr: e, Alias: outNames[si]})
	}
	return nil
}

package transform

import (
	"fmt"
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

// Find implements Rule. When both forms are legal, variant 1 pulls the
// join predicates out (Q15) and variant 2 leaves them in the branches with
// a lateral join; when only one is legal, it is variant 1.
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
			strictOK := analyzeFactorization(b, name) != nil
			lateralOK := analyzeLateralFactorization(b, name) != nil
			if strictOK || lateralOK {
				out = append(out, Object{Block: b, table: name}.withForms(strictOK, lateralOK))
			}
		}
	}
	return out
}

// analyzeLateralFactorization checks the weaker legality of the lateral
// variant: one inner occurrence of the table per branch, plain same-ordinal
// select references, and no use of the table in grouping clauses. Join
// predicates may have any shape — they stay inside the branches.
func analyzeLateralFactorization(b *qtree.Block, name string) []branchPlan {
	var plans []branchPlan
	var selSig map[int]int
	for bi, br := range b.Set.Children {
		if br.IsSetOp() || br.Distinct || br.HasGroupBy() || br.Limit > 0 ||
			len(br.OrderBy) > 0 || blockHasSubqueries(br) || br.HasWindowFuncs() {
			return nil
		}
		var item *qtree.FromItem
		for _, f := range br.From {
			if f.IsTable() && f.Table.Name == name && f.Kind == qtree.JoinInner {
				if item != nil {
					return nil
				}
				item = f
			}
		}
		if item == nil || len(br.From) < 2 {
			return nil
		}
		p := branchPlan{item: item, selOrds: map[int]int{}}
		for si, it := range br.Select {
			if !refersTo(it.Expr, item.ID) {
				continue
			}
			ord, isCol := colOfTable(it.Expr, item.ID)
			if !isCol {
				return nil
			}
			p.selOrds[si] = ord
		}
		// Non-inner join conditions referencing the table would change
		// meaning when the table becomes correlated; reject.
		for _, f := range br.From {
			if f == item {
				continue
			}
			for _, c := range f.Cond {
				if refersTo(c, item.ID) {
					return nil
				}
			}
		}
		if bi == 0 {
			selSig = p.selOrds
		} else if !equalIntMap(selSig, p.selOrds) {
			return nil
		}
		plans = append(plans, p)
	}
	return plans
}

// branchPlan describes how one branch participates in the factorization.
type branchPlan struct {
	item      *qtree.FromItem
	joinWhere []int // where indexes of the table's join predicates
	joinOrds  []int // table column ordinal per join predicate (sorted)
	joinExprs []qtree.Expr
	selOrds   map[int]int // select position -> table column ordinal
}

// analyzeFactorization checks legality of factoring table name out of
// every branch and returns the per-branch plans (nil if illegal).
func analyzeFactorization(b *qtree.Block, name string) []branchPlan {
	var plans []branchPlan
	var refOrds []int // join ordinal signature from the first branch
	var selSig map[int]int
	for bi, br := range b.Set.Children {
		if br.IsSetOp() || br.Distinct || br.HasGroupBy() || br.Limit > 0 ||
			len(br.OrderBy) > 0 || blockHasSubqueries(br) || br.HasWindowFuncs() {
			return nil
		}
		// Exactly one inner occurrence of the table.
		var item *qtree.FromItem
		for _, f := range br.From {
			if f.IsTable() && f.Table.Name == name && f.Kind == qtree.JoinInner {
				if item != nil {
					return nil
				}
				item = f
			}
		}
		if item == nil || len(br.From) < 2 {
			return nil
		}
		p := branchPlan{item: item, selOrds: map[int]int{}}
		// Classify conjuncts touching the table: every one must be an
		// equality between a table column and a T-free expression (no
		// single-table filters on T, which would have to match across
		// branches; kept out of scope and documented).
		type jp struct {
			ord  int
			expr qtree.Expr
			wi   int
		}
		var jps []jp
		for wi, e := range br.Where {
			if !refersTo(e, item.ID) {
				continue
			}
			bin, ok := e.(*qtree.Bin)
			if !ok || bin.Op != qtree.OpEq {
				return nil
			}
			if ord, isT := colOfTable(bin.L, item.ID); isT && !refersTo(bin.R, item.ID) {
				jps = append(jps, jp{ord: ord, expr: bin.R, wi: wi})
				continue
			}
			if ord, isT := colOfTable(bin.R, item.ID); isT && !refersTo(bin.L, item.ID) {
				jps = append(jps, jp{ord: ord, expr: bin.L, wi: wi})
				continue
			}
			return nil
		}
		if len(jps) == 0 {
			return nil
		}
		sort.SliceStable(jps, func(i, j int) bool { return jps[i].ord < jps[j].ord })
		for _, x := range jps {
			p.joinOrds = append(p.joinOrds, x.ord)
			p.joinExprs = append(p.joinExprs, x.expr)
			p.joinWhere = append(p.joinWhere, x.wi)
		}
		// Select positions referencing the table must be plain columns.
		for si, it := range br.Select {
			if !refersTo(it.Expr, item.ID) {
				continue
			}
			ord, isCol := colOfTable(it.Expr, item.ID)
			if !isCol {
				return nil
			}
			p.selOrds[si] = ord
		}
		// The table must not appear anywhere else in the branch.
		for _, g := range br.GroupBy {
			if refersTo(g, item.ID) {
				return nil
			}
		}
		// Signatures must match across branches.
		if bi == 0 {
			refOrds = p.joinOrds
			selSig = p.selOrds
		} else {
			if !equalInts(refOrds, p.joinOrds) || !equalIntMap(selSig, p.selOrds) {
				return nil
			}
		}
		plans = append(plans, p)
	}
	return plans
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalIntMap(a, b map[int]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
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

// Apply implements Rule.
func (r *JoinFactorization) Apply(q *qtree.Query, o Object, variant int) error {
	switch o.form(variant) {
	case formSecond:
		return applyLateralFactorization(q, o)
	case 0:
		return fmt.Errorf("join factorization: no variant %d for table %s", variant, o.table)
	}
	b := factorizationSite(q, o)
	if b == nil {
		return fmt.Errorf("join factorization: block %d is no longer a UNION ALL", o.Block.ID)
	}
	b = q.Mutable(b)
	plans := analyzeFactorization(b, o.table)
	if plans == nil {
		return fmt.Errorf("join factorization: no longer legal")
	}
	children := b.Set.Children
	outNames := b.OutCols()
	nOut := len(children[0].Select)
	// The common table moves to the outer block; copy the item so the new
	// tree never aliases a from-item struct still held by a shared branch.
	tItem := copyFromItem(plans[0].item)
	nJoin := len(plans[0].joinOrds)

	// Rewrite each branch: drop the table and its join predicates, expose
	// the join expressions as extra outputs, null out the table's select
	// positions. Materializing a branch relinks it into b.Set.Children,
	// which `children` aliases, so the slice stays current.
	for bi, br := range children {
		br = q.Mutable(br)
		p := plans[bi]
		removeFromItem(br, p.item.ID)
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
		for si := range p.selOrds {
			br.Select[si].Expr = &qtree.Const{} // dead position, NULL
		}
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

	b.Set = nil
	b.From = []*qtree.FromItem{tItem, vItem}
	b.Where = nil
	for k := 0; k < nJoin; k++ {
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

// applyLateralFactorization factors the common table out while leaving its
// join predicates inside the branches: every branch's occurrence of the
// table is removed and its references redirected to the single pulled-out
// item, making the UNION ALL view correlated (lateral), exactly the
// JPPD-based technique §2.2.5 sketches for non-pullable predicates.
func applyLateralFactorization(q *qtree.Query, o Object) error {
	b := factorizationSite(q, o)
	if b == nil {
		return fmt.Errorf("join factorization (lateral): block %d is no longer a UNION ALL", o.Block.ID)
	}
	b = q.Mutable(b)
	plans := analyzeLateralFactorization(b, o.table)
	if plans == nil {
		return fmt.Errorf("join factorization (lateral): no longer legal")
	}
	children := b.Set.Children
	outNames := b.OutCols()
	nOut := len(children[0].Select)
	tItem := copyFromItem(plans[0].item)

	for bi, br := range children {
		p := plans[bi]
		if p.item.ID != tItem.ID {
			// The redirect below rewrites the branch's whole subtree.
			br = q.MutableDeep(br)
		} else {
			br = q.Mutable(br)
		}
		removeFromItem(br, p.item.ID)
		if p.item.ID != tItem.ID {
			// Redirect this branch's references to the pulled-out item.
			old := p.item.ID
			qtree.RewriteBlockExprsDeep(br, func(e qtree.Expr) qtree.Expr {
				if c, ok := e.(*qtree.Col); ok && c.From == old {
					return &qtree.Col{From: tItem.ID, Ord: c.Ord, Name: c.Name}
				}
				return nil
			})
		}
		// Select positions that exposed the table become dead; the outer
		// block reads those columns from the table directly.
		for si := range p.selOrds {
			br.Select[si].Expr = &qtree.Const{}
		}
	}

	vBlock := q.NewBlock()
	vBlock.Set = &qtree.SetOp{Kind: qtree.SetUnionAll, Children: children}
	vItem := &qtree.FromItem{ID: q.NewFromID(), Alias: "VW_JF_L", View: vBlock, Lateral: true}

	b.Set = nil
	b.From = []*qtree.FromItem{tItem, vItem}
	b.Where = nil
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

package qtree

import "strconv"

// The walks Block.OuterCols replaced, kept as references: each body is the
// one the former code ran, so TestOuterColsMatchReference can pin that the
// one walk reads every tree as they did.

// RefCols is the former Block.Cols: Walk, then each block's expressions.
func RefCols(b *Block, f func(*Col)) {
	b.Walk(func(blk *Block) bool {
		blk.exprSlots(func(p *Expr) {
			RefWalkExpr(*p, func(x Expr) bool {
				if c, ok := x.(*Col); ok {
					f(c)
				}
				return true
			})
		})
		return true
	})
}

// RefOuterRefs is the former Block.OuterRefs.
func RefOuterRefs(b *Block) map[FromID]bool {
	refs := map[FromID]bool{}
	RefCols(b, func(c *Col) { refs[c.From] = true })
	b.Walk(func(blk *Block) bool {
		for _, f := range blk.From {
			delete(refs, f.ID)
		}
		return true
	})
	return refs
}

// RefColID is a (from, ord) pair, as optimizer.ColID.
type RefColID struct {
	From FromID
	Ord  int
}

// RefOuterColIDs is the former exec.outerColIDs, the TIS cache key.
func RefOuterColIDs(b *Block) []RefColID {
	defined := b.Defined()
	seen := map[RefColID]bool{}
	var out []RefColID
	RefCols(b, func(c *Col) {
		id := RefColID{From: c.From, Ord: c.Ord}
		if !defined[c.From] && !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	})
	return out
}

// RefKey is the former BlockKeyer.Key: every item of b's subtree named t0,
// t1, ... in visitFromItems order before the render, and the outer items
// its column references reach named by table and alias.
func RefKey(q *Query, b *Block) string {
	n := Namer{names: map[FromID]string{}, form: formCanonical}
	names := n.names
	i := 0
	visitFromItems(b, func(f *FromItem) {
		names[f.ID] = "t" + strconv.Itoa(i)
		i++
	})
	var outer map[FromID]*FromItem
	RefCols(b, func(c *Col) {
		id := c.From
		if _, named := names[id]; named {
			return
		}
		if outer == nil {
			outer = map[FromID]*FromItem{}
			visitFromItems(q.Root, func(f *FromItem) {
				outer[f.ID] = f
			})
		}
		f := outer[id]
		if f == nil {
			names[id] = "x" + strconv.Itoa(int(id))
			return
		}
		tbl := "view"
		if f.Table != nil {
			tbl = f.Table.Name
		}
		names[id] = "x:" + tbl + "~" + f.Alias
	})
	return b.SQL(&n)
}

// The expression switches subExprs replaced, kept as references: each body
// is the one the former code ran, so TestExprChildrenMatchReference can pin
// that WalkExpr, RewriteExpr and the deep clone read and build every tree
// as they did.

// RefWalkExpr is the former WalkExpr.
func RefWalkExpr(e Expr, f func(Expr) bool) {
	if e == nil || !f(e) {
		return
	}
	switch v := e.(type) {
	case *Bin:
		RefWalkExpr(v.L, f)
		RefWalkExpr(v.R, f)
	case *Not:
		RefWalkExpr(v.E, f)
	case *IsNull:
		RefWalkExpr(v.E, f)
	case *Like:
		RefWalkExpr(v.E, f)
		RefWalkExpr(v.Pattern, f)
	case *InList:
		RefWalkExpr(v.E, f)
		for _, x := range v.Vals {
			RefWalkExpr(x, f)
		}
	case *Func:
		for _, x := range v.Args {
			RefWalkExpr(x, f)
		}
	case *LNNVL:
		RefWalkExpr(v.E, f)
	case *IsTrue:
		RefWalkExpr(v.E, f)
	case *Agg:
		if v.Arg != nil {
			RefWalkExpr(v.Arg, f)
		}
	case *WinFunc:
		if v.Arg != nil {
			RefWalkExpr(v.Arg, f)
		}
		for _, x := range v.PartitionBy {
			RefWalkExpr(x, f)
		}
		for _, o := range v.OrderBy {
			RefWalkExpr(o.Expr, f)
		}
	case *Subq:
		for _, x := range v.Left {
			RefWalkExpr(x, f)
		}
	case *Case:
		for _, w := range v.Whens {
			RefWalkExpr(w.Cond, f)
			RefWalkExpr(w.Result, f)
		}
		if v.Else != nil {
			RefWalkExpr(v.Else, f)
		}
	}
}

// RefRewriteExpr is the former RewriteExpr, which kept a subquery whole.
func RefRewriteExpr(e Expr, f func(Expr) Expr) Expr {
	if e == nil {
		return nil
	}
	if r := f(e); r != nil {
		return r
	}
	switch v := e.(type) {
	case *Const, *Col, *Subq:
		return e
	case *Bin:
		return &Bin{Op: v.Op, L: RefRewriteExpr(v.L, f), R: RefRewriteExpr(v.R, f)}
	case *Not:
		return &Not{E: RefRewriteExpr(v.E, f)}
	case *IsNull:
		return &IsNull{E: RefRewriteExpr(v.E, f), Neg: v.Neg}
	case *Like:
		return &Like{E: RefRewriteExpr(v.E, f), Pattern: RefRewriteExpr(v.Pattern, f), Neg: v.Neg}
	case *InList:
		out := &InList{E: RefRewriteExpr(v.E, f), Neg: v.Neg}
		for _, x := range v.Vals {
			out.Vals = append(out.Vals, RefRewriteExpr(x, f))
		}
		return out
	case *Func:
		out := &Func{Def: v.Def}
		for _, x := range v.Args {
			out.Args = append(out.Args, RefRewriteExpr(x, f))
		}
		return out
	case *LNNVL:
		return &LNNVL{E: RefRewriteExpr(v.E, f)}
	case *IsTrue:
		return &IsTrue{E: RefRewriteExpr(v.E, f)}
	case *Agg:
		out := &Agg{Op: v.Op, Star: v.Star, Distinct: v.Distinct}
		if v.Arg != nil {
			out.Arg = RefRewriteExpr(v.Arg, f)
		}
		return out
	case *WinFunc:
		out := &WinFunc{Op: v.Op, Star: v.Star, Running: v.Running}
		if v.Arg != nil {
			out.Arg = RefRewriteExpr(v.Arg, f)
		}
		for _, x := range v.PartitionBy {
			out.PartitionBy = append(out.PartitionBy, RefRewriteExpr(x, f))
		}
		for _, o := range v.OrderBy {
			out.OrderBy = append(out.OrderBy, OrderItem{Expr: RefRewriteExpr(o.Expr, f), Desc: o.Desc})
		}
		return out
	case *Case:
		out := &Case{}
		for _, w := range v.Whens {
			out.Whens = append(out.Whens, CaseWhen{
				Cond:   RefRewriteExpr(w.Cond, f),
				Result: RefRewriteExpr(w.Result, f),
			})
		}
		if v.Else != nil {
			out.Else = RefRewriteExpr(v.Else, f)
		}
		return out
	}
	return e
}

// RefCloneExpr is the former transform.cloneExpr: a pre-walk that stops at
// each subquery and registers its block's from IDs, then the former
// per-type Clone methods (refClone).
func RefCloneExpr(q *Query, e Expr) Expr {
	r := &Remap{IDs: map[FromID]FromID{}, dst: q}
	RefWalkExpr(e, func(x Expr) bool {
		if s, ok := x.(*Subq); ok {
			registerFromIDs(s.Block, r)
			return false
		}
		return true
	})
	return refClone(e, r)
}

// refClone is the former Expr.Clone: the fifteen methods as one switch.
func refClone(e Expr, r *Remap) Expr {
	switch e := e.(type) {
	case *Const:
		return &Const{Val: e.Val}
	case *Param:
		return &Param{Ord: e.Ord, Name: e.Name}
	case *Col:
		return &Col{From: r.lookup(e.From), Ord: e.Ord, Name: e.Name}
	case *Bin:
		return &Bin{Op: e.Op, L: refClone(e.L, r), R: refClone(e.R, r)}
	case *Not:
		return &Not{E: refClone(e.E, r)}
	case *IsNull:
		return &IsNull{E: refClone(e.E, r), Neg: e.Neg}
	case *Like:
		return &Like{E: refClone(e.E, r), Pattern: refClone(e.Pattern, r), Neg: e.Neg}
	case *InList:
		return &InList{E: refClone(e.E, r), Vals: refCloneExprs(e.Vals, r), Neg: e.Neg}
	case *Func:
		return &Func{Def: e.Def, Args: refCloneExprs(e.Args, r)}
	case *LNNVL:
		return &LNNVL{E: refClone(e.E, r)}
	case *IsTrue:
		return &IsTrue{E: refClone(e.E, r)}
	case *Agg:
		c := &Agg{Op: e.Op, Star: e.Star, Distinct: e.Distinct}
		if e.Arg != nil {
			c.Arg = refClone(e.Arg, r)
		}
		return c
	case *WinFunc:
		c := &WinFunc{Op: e.Op, Star: e.Star, Running: e.Running}
		if e.Arg != nil {
			c.Arg = refClone(e.Arg, r)
		}
		c.PartitionBy = refCloneExprs(e.PartitionBy, r)
		for _, o := range e.OrderBy {
			c.OrderBy = append(c.OrderBy, OrderItem{Expr: refClone(o.Expr, r), Desc: o.Desc})
		}
		return c
	case *Subq:
		return &Subq{Kind: e.Kind, Op: e.Op, Left: refCloneExprs(e.Left, r), Block: refCloneStructure(e.Block, r)}
	case *Case:
		c := &Case{}
		for _, w := range e.Whens {
			c.Whens = append(c.Whens, CaseWhen{Cond: refClone(w.Cond, r), Result: refClone(w.Result, r)})
		}
		if e.Else != nil {
			c.Else = refClone(e.Else, r)
		}
		return c
	}
	panic("qtree: refClone of an unknown expression")
}

func refCloneExprs(es []Expr, r *Remap) []Expr {
	if es == nil {
		return nil
	}
	out := make([]Expr, len(es))
	for i, e := range es {
		out[i] = refClone(e, r)
	}
	return out
}

// refCloneStructure is the former Block.cloneStructure: block ID first,
// then set-operation branches, then each from item's view and ON conjuncts
// in from order, then the select list, WHERE, GROUP BY, HAVING and ORDER BY.
func refCloneStructure(b *Block, r *Remap) *Block {
	nb := r.dst.NewBlock()
	nb.Distinct = b.Distinct
	nb.Limit = b.Limit
	if b.Set != nil {
		nb.Set = &SetOp{Kind: b.Set.Kind}
		for _, c := range b.Set.Children {
			nb.Set.Children = append(nb.Set.Children, refCloneStructure(c, r))
		}
	}
	for _, f := range b.From {
		nf := &FromItem{
			ID: r.lookup(f.ID), Alias: f.Alias, Table: f.Table,
			Kind: f.Kind, Lateral: f.Lateral,
		}
		if f.View != nil {
			nf.View = refCloneStructure(f.View, r)
		}
		nf.Cond = refCloneExprs(f.Cond, r)
		nb.From = append(nb.From, nf)
	}
	for _, it := range b.Select {
		nb.Select = append(nb.Select, SelectItem{Expr: refClone(it.Expr, r), Alias: it.Alias})
	}
	nb.Where = refCloneExprs(b.Where, r)
	nb.GroupBy = refCloneExprs(b.GroupBy, r)
	if b.GroupingSets != nil {
		nb.GroupingSets = make([][]int, len(b.GroupingSets))
		for i, s := range b.GroupingSets {
			nb.GroupingSets[i] = append([]int(nil), s...)
		}
	}
	nb.Having = refCloneExprs(b.Having, r)
	for _, o := range b.OrderBy {
		nb.OrderBy = append(nb.OrderBy, OrderItem{Expr: refClone(o.Expr, r), Desc: o.Desc})
	}
	return nb
}

// RefQueryClone is the former Query.Clone.
func RefQueryClone(q *Query) *Query {
	nq := &Query{Catalog: q.Catalog, Params: append([]string(nil), q.Params...), nextFrom: 1, nextBlk: 1}
	r := &Remap{IDs: map[FromID]FromID{}, dst: nq}
	registerFromIDs(q.Root, r)
	nq.Root = refCloneStructure(q.Root, r)
	return nq
}

// ExprSlots exposes Block.exprSlots.
func ExprSlots(b *Block, f func(*Expr)) { b.exprSlots(f) }

// RawSQL renders b with raw from IDs (q<ID>) and subqueries by block ID.
func RawSQL(b *Block) string { return b.SQL(rawNamer) }

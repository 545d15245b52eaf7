package qtree

import "slices"

// RewriteExpr rebuilds e bottom-up applying f at every node. If f returns a
// non-nil expression for a node, that replacement is used and its children
// are not visited. Subquery blocks are not entered.
func RewriteExpr(e Expr, f func(Expr) Expr) Expr {
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
		return &Bin{Op: v.Op, L: RewriteExpr(v.L, f), R: RewriteExpr(v.R, f)}
	case *Not:
		return &Not{E: RewriteExpr(v.E, f)}
	case *IsNull:
		return &IsNull{E: RewriteExpr(v.E, f), Neg: v.Neg}
	case *Like:
		return &Like{E: RewriteExpr(v.E, f), Pattern: RewriteExpr(v.Pattern, f), Neg: v.Neg}
	case *InList:
		out := &InList{E: RewriteExpr(v.E, f), Neg: v.Neg}
		for _, x := range v.Vals {
			out.Vals = append(out.Vals, RewriteExpr(x, f))
		}
		return out
	case *Func:
		out := &Func{Def: v.Def}
		for _, x := range v.Args {
			out.Args = append(out.Args, RewriteExpr(x, f))
		}
		return out
	case *LNNVL:
		return &LNNVL{E: RewriteExpr(v.E, f)}
	case *IsTrue:
		return &IsTrue{E: RewriteExpr(v.E, f)}
	case *Agg:
		out := &Agg{Op: v.Op, Star: v.Star, Distinct: v.Distinct}
		if v.Arg != nil {
			out.Arg = RewriteExpr(v.Arg, f)
		}
		return out
	case *WinFunc:
		out := &WinFunc{Op: v.Op, Star: v.Star, Running: v.Running}
		if v.Arg != nil {
			out.Arg = RewriteExpr(v.Arg, f)
		}
		for _, x := range v.PartitionBy {
			out.PartitionBy = append(out.PartitionBy, RewriteExpr(x, f))
		}
		for _, o := range v.OrderBy {
			out.OrderBy = append(out.OrderBy, OrderItem{Expr: RewriteExpr(o.Expr, f), Desc: o.Desc})
		}
		return out
	case *Case:
		out := &Case{}
		for _, w := range v.Whens {
			out.Whens = append(out.Whens, CaseWhen{
				Cond:   RewriteExpr(w.Cond, f),
				Result: RewriteExpr(w.Result, f),
			})
		}
		if v.Else != nil {
			out.Else = RewriteExpr(v.Else, f)
		}
		return out
	}
	return e
}

// RewriteBlockExprs applies RewriteExpr with f to every expression slot of
// the block in place (not descending into views or subquery blocks).
func RewriteBlockExprs(b *Block, f func(Expr) Expr) {
	for i := range b.Select {
		b.Select[i].Expr = RewriteExpr(b.Select[i].Expr, f)
	}
	for _, fi := range b.From {
		for i := range fi.Cond {
			fi.Cond[i] = RewriteExpr(fi.Cond[i], f)
		}
	}
	for i := range b.Where {
		b.Where[i] = RewriteExpr(b.Where[i], f)
	}
	for i := range b.GroupBy {
		b.GroupBy[i] = RewriteExpr(b.GroupBy[i], f)
	}
	for i := range b.Having {
		b.Having[i] = RewriteExpr(b.Having[i], f)
	}
	for i := range b.OrderBy {
		b.OrderBy[i].Expr = RewriteExpr(b.OrderBy[i].Expr, f)
	}
}

// rewriteSubqs rewrites b's expression slots in place, replacing each
// subquery expression s, one nested in another's left operands included,
// with f(s) when that is non-nil.
func rewriteSubqs(b *Block, f func(*Subq) *Subq) {
	var rw func(Expr) Expr
	rw = func(e Expr) Expr {
		s, ok := e.(*Subq)
		if !ok {
			return nil
		}
		ns := f(s)
		if slices.ContainsFunc(s.Left, ContainsSubq) {
			if ns == nil {
				c := *s
				ns = &c
			}
			ns.Left = make([]Expr, len(s.Left))
			for i, l := range s.Left {
				ns.Left[i] = RewriteExpr(l, rw)
			}
		}
		if ns == nil {
			return nil // keep s
		}
		return ns
	}
	RewriteBlockExprs(b, rw)
}

// RewriteBlockExprsDeep applies f to every expression in the block and in
// all nested views and subquery blocks. Used by transformations that
// redirect column references across block boundaries (correlated references
// must follow).
func RewriteBlockExprsDeep(b *Block, f func(Expr) Expr) {
	b.Walk(func(blk *Block) bool {
		RewriteBlockExprs(blk, f)
		return true
	})
}

package qtree

// RewriteExpr rebuilds e top-down applying f at every node. If f returns a
// non-nil expression for a node, that replacement is used and its children
// are not visited; otherwise the node is copied with each child (subExprs)
// rewritten, so every node with children is new and leaves come back as
// they are. A subquery's left operands are rewritten like any other child;
// its block is not entered, and the copy links the same block.
func RewriteExpr(e Expr, f func(Expr) Expr) Expr {
	if e == nil {
		return nil
	}
	if r := f(e); r != nil {
		return r
	}
	return subExprs(e, true, func(c *Expr) { *c = RewriteExpr(*c, f) })
}

// RewriteBlockExprs applies RewriteExpr with f to every expression slot of
// the block (exprSlots) in place, a subquery's left operands included,
// without descending into views or subquery blocks.
func RewriteBlockExprs(b *Block, f func(Expr) Expr) {
	b.exprSlots(func(p *Expr) { *p = RewriteExpr(*p, f) })
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

// CloneExpr deep-copies e into query q: column references keep their from
// IDs, and each subquery block in e, one in a left operand included, is
// copied with fresh block and from-item identities from q, so the copy
// does not collide with the original.
func CloneExpr(q *Query, e Expr) Expr {
	return cloneExpr(e, &Remap{IDs: map[FromID]FromID{}, dst: q}, true)
}

// cloneExpr is the one deep copy of an expression: every node is new but
// constants and parameters (immutable values), column references translate
// through r, and each subquery's block is copied whole (cloneStructure).
// The copy's from IDs must be in r before the copy that references them:
// a block copy registers its whole subtree first (registerFromIDs), so its
// expressions pass register false; with register set, each subquery block
// met outside any block is registered when the copy reaches it, in
// pre-order.
func cloneExpr(e Expr, r *Remap, register bool) Expr {
	switch v := e.(type) {
	case nil:
		return nil
	case *Col:
		return &Col{From: r.lookup(v.From), Ord: v.Ord, Name: v.Name}
	case *Subq:
		if register {
			registerFromIDs(v.Block, r)
		}
	}
	c := subExprs(e, true, func(c *Expr) { *c = cloneExpr(*c, r, register) })
	if s, ok := c.(*Subq); ok {
		s.Block = s.Block.cloneStructure(r)
	}
	return c
}

// CopyRewriteBlock returns a copy of block b and of every block nested in
// it (set branches, views, subquery blocks) with f applied to each of their
// expressions as RewriteExpr applies it, keeping every block and from ID; b
// is not modified. The copy is for a plan to compile in b's place, never
// for the query tree, where two blocks may not share an ID.
func CopyRewriteBlock(b *Block, f func(Expr) Expr) *Block {
	nb := b.shell(b.query)
	if nb.Set != nil {
		for i, c := range nb.Set.Children {
			nb.Set.Children[i] = CopyRewriteBlock(c, f)
		}
	}
	for _, fi := range nb.From {
		if fi.View != nil {
			fi.View = CopyRewriteBlock(fi.View, f)
		}
	}
	var g func(Expr) Expr
	g = func(x Expr) Expr {
		if r := f(x); r != nil {
			return r
		}
		if s, ok := x.(*Subq); ok {
			return CopyRewriteSubq(s, g, f)
		}
		return nil
	}
	nb.exprSlots(func(p *Expr) { *p = RewriteExpr(*p, g) })
	return nb
}

// CopyRewriteSubq returns a copy of subquery s whose left operands are
// rewritten by RewriteExpr with left and whose block is CopyRewriteBlock's
// copy with block; s is not modified. Like CopyRewriteBlock's, the copy is
// for a plan to compile, never for the query tree.
func CopyRewriteSubq(s *Subq, left, block func(Expr) Expr) *Subq {
	c := subExprs(s, true, func(l *Expr) { *l = RewriteExpr(*l, left) }).(*Subq)
	c.Block = CopyRewriteBlock(s.Block, block)
	return c
}

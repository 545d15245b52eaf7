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

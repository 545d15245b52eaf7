package qtree

import "strconv"

// The walks Block.OuterCols replaced, kept as references: each body is the
// one the former code ran, so TestOuterColsMatchReference can pin that the
// one walk reads every tree as they did.

// RefCols is the former Block.Cols: Walk, then each block's expressions.
func RefCols(b *Block, f func(*Col)) {
	b.Walk(func(blk *Block) bool {
		blk.exprRoots(func(e Expr) {
			WalkExpr(e, func(x Expr) bool {
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

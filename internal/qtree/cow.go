package qtree

import "sync/atomic"

// Copy-on-write query clones (§3.4.3). The CBQT search evaluates one
// transformation state per tree copy; a deep copy per state is the search's
// dominant CPU and memory cost. CloneCOW instead shares the whole block
// tree with the base query and materializes a private copy of a block only
// when a transformation asks to mutate it (Mutable/MutableDeep), so a state
// that rewrites two blocks of a twelve-block query copies two blocks, not
// twelve.
//
// Ownership discipline:
//
//   - A block b is *owned* by query q iff b.query == q. Blocks of a COW
//     clone start out owned by the base; materialized copies and blocks the
//     transformation creates through q.NewBlock are owned by the clone.
//   - The owned region is upward-closed: materialization copies the whole
//     path from the root to the requested block, so a shared block's
//     subtree is entirely shared and is never mutated through the clone.
//   - An owned block's immediate structure is private: its slices, its
//     FromItem structs and its SetOp header belong to the clone. Child
//     *Block pointers may still reference shared blocks, and Expr nodes are
//     shared freely — the transformation layer treats expressions as
//     immutable (rewrites build new spines).
//   - Materialized copies keep the original block ID and allocate nothing
//     from either query's counters, so materialization is invisible to ID
//     allocation: a COW clone that applies a transformation produces the
//     same IDs the same transformation would produce on a private tree.
//
// Transformations never see stale pointers as long as every mutation goes
// through Mutable: materializing block b forwards b to its private copy
// (Resolve follows the forwarding chain), and an un-materialized block is
// by construction un-mutated, so reading through a pre-materialization
// pointer observes exactly the content the current tree holds.
type cowState struct {
	base *Query
	// fwd forwards a base block to the clone's materialized copy of it.
	fwd map[*Block]*Block
}

// Process-wide copy counters, for the clone-accounting regression tests and
// the memo benchmark. Deltas, not absolute values, are meaningful.
var (
	fullCloneCount   atomic.Int64
	cowCloneCount    atomic.Int64
	materializeCount atomic.Int64
)

// CopyCounters reports the process-wide number of deep clones (Query.Clone),
// COW clones (CloneCOW) and block materializations performed so far. Callers
// diff two readings to attribute copies to one optimization.
func CopyCounters() (fullClones, cowClones, materializations int64) {
	return fullCloneCount.Load(), cowCloneCount.Load(), materializeCount.Load()
}

// CloneCOW returns a copy-on-write clone of q: the block tree is shared,
// ID counters continue from q's values, and the first mutation of any block
// (via Mutable) materializes a private copy of the path to it. The clone is
// safe to build and use concurrently with other clones of the same base as
// long as the base itself is not mutated.
func (q *Query) CloneCOW() *Query {
	if q.cow != nil {
		panic("qtree: CloneCOW of a copy-on-write clone")
	}
	cowCloneCount.Add(1)
	return &Query{
		Root:     q.Root,
		Catalog:  q.Catalog,
		Params:   append([]string(nil), q.Params...),
		nextFrom: q.nextFrom,
		nextBlk:  q.nextBlk,
		cow:      &cowState{base: q, fwd: map[*Block]*Block{}},
	}
}

// IsCOW reports whether q is a copy-on-write clone.
func (q *Query) IsCOW() bool { return q.cow != nil }

// CanHold reports whether block b may legally appear in q's tree: b is
// owned by q, or q is a COW clone and b is shared from its base. The static
// checker uses this in place of strict ownership.
func (q *Query) CanHold(b *Block) bool {
	return b.query == q || (q.cow != nil && b.query == q.cow.base)
}

// IDCounters exposes the query's next from-item and block IDs, so the
// aliasing checker can verify that evaluating a state never allocates from
// the shared base.
func (q *Query) IDCounters() (FromID, int) { return q.nextFrom, q.nextBlk }

// Resolve forwards b through any materializations this clone performed: if
// a transformation holds a pre-materialization pointer (from an earlier
// object-discovery pass), Resolve returns the block's current incarnation.
// On a non-COW query, or for a never-materialized block, it returns b.
func (q *Query) Resolve(b *Block) *Block {
	if q.cow == nil || b == nil || b.query == q {
		return b
	}
	for {
		nb, ok := q.cow.fwd[b]
		if !ok {
			return b
		}
		b = nb
	}
}

// Mutable returns a privately-owned incarnation of b that the caller may
// mutate. On a non-COW query it returns b unchanged. On a COW clone it
// materializes (shallow-copies) the path from the root to b, forwarding
// every copied block, and returns b's copy; blocks already owned come back
// as-is. Transformations must route every block mutation through Mutable
// (or MutableDeep) and must re-fetch derived pointers (from items, views,
// subquery blocks) from the returned block.
func (q *Query) Mutable(b *Block) *Block {
	if q.cow == nil || b == nil {
		return b
	}
	b = q.Resolve(b)
	if b.query == q {
		return b
	}
	if b.query != q.cow.base {
		panic("qtree: Mutable on a block owned by a foreign query")
	}
	path, ok := q.findPath(b)
	if !ok {
		panic("qtree: Mutable on a block not reachable from the root")
	}
	var parent *Block
	for _, node := range path {
		if node.query == q {
			parent = node
			continue
		}
		nb := q.materialize(node)
		if parent == nil {
			q.Root = nb
		} else {
			q.relink(parent, node, nb)
		}
		parent = nb
	}
	return parent
}

// MutableDeep is Mutable plus full-subtree privatization: every descendant
// block of b (views, set-operation children, subquery blocks) is
// materialized too. Transformations that rewrite expressions across block
// boundaries (RewriteBlockExprsDeep, view substitution) need the whole
// subtree private.
func (q *Query) MutableDeep(b *Block) *Block {
	if q.cow == nil || b == nil {
		return b
	}
	nb := q.Mutable(b)
	q.privatize(nb)
	return nb
}

// findPath locates the link path from q.Root down to target, returning the
// blocks along it (root first, target last).
func (q *Query) findPath(target *Block) ([]*Block, bool) {
	var path []*Block
	var dfs func(b *Block) bool
	dfs = func(b *Block) bool {
		if b == nil {
			return false
		}
		path = append(path, b)
		if b == target {
			return true
		}
		if b.Set != nil {
			for _, c := range b.Set.Children {
				if dfs(c) {
					return true
				}
			}
		}
		for _, f := range b.From {
			if f.View != nil && dfs(f.View) {
				return true
			}
		}
		found := false
		walkBlockExprs(b, func(e Expr) {
			if found {
				return
			}
			if s, ok := e.(*Subq); ok && dfs(s.Block) {
				found = true
			}
		})
		if found {
			return true
		}
		path = path[:len(path)-1]
		return false
	}
	return path, dfs(q.Root)
}

// materialize shallow-copies a shared block into the clone: private slices,
// private FromItem structs and SetOp header, same block ID, shared Expr
// nodes and child *Block pointers. The copy is registered in the forwarding
// map so stale pointers resolve to it.
func (q *Query) materialize(b *Block) *Block {
	nb := &Block{
		ID:       b.ID,
		Distinct: b.Distinct,
		Limit:    b.Limit,
		Select:   append([]SelectItem(nil), b.Select...),
		Where:    append([]Expr(nil), b.Where...),
		GroupBy:  append([]Expr(nil), b.GroupBy...),
		Having:   append([]Expr(nil), b.Having...),
		OrderBy:  append([]OrderItem(nil), b.OrderBy...),
		query:    q,
	}
	if b.GroupingSets != nil {
		nb.GroupingSets = make([][]int, len(b.GroupingSets))
		for i, s := range b.GroupingSets {
			nb.GroupingSets[i] = append([]int(nil), s...)
		}
	}
	if len(b.From) > 0 {
		nb.From = make([]*FromItem, len(b.From))
		for i, f := range b.From {
			nf := *f
			nf.Cond = append([]Expr(nil), f.Cond...)
			nb.From[i] = &nf
		}
	}
	if b.Set != nil {
		nb.Set = &SetOp{Kind: b.Set.Kind, Children: append([]*Block(nil), b.Set.Children...)}
	}
	q.cow.fwd[b] = nb
	materializeCount.Add(1)
	return nb
}

// relink redirects parent's child link from old to nb. parent must already
// be owned by q. Subquery links live inside shared expression spines, so
// redirecting one rebuilds the spine with a fresh *Subq node and writes it
// into the parent's (private) expression slot.
func (q *Query) relink(parent, old, nb *Block) {
	if parent.Set != nil {
		for i, c := range parent.Set.Children {
			if c == old {
				parent.Set.Children[i] = nb
				return
			}
		}
	}
	for _, f := range parent.From {
		if f.View == old {
			f.View = nb
			return
		}
	}
	replaced := false
	RewriteBlockExprs(parent, func(e Expr) Expr {
		if s, ok := e.(*Subq); ok && s.Block == old {
			ns := *s
			ns.Block = nb
			replaced = true
			return &ns
		}
		return nil
	})
	if !replaced {
		panic("qtree: COW relink found no link from parent to child")
	}
}

// privatize materializes every descendant block of the (owned) block b.
func (q *Query) privatize(b *Block) {
	if b.Set != nil {
		for i, c := range b.Set.Children {
			c = q.Resolve(c)
			if c.query != q {
				c = q.materialize(c)
			}
			b.Set.Children[i] = c
			q.privatize(c)
		}
	}
	for _, f := range b.From {
		if f.View == nil {
			continue
		}
		v := q.Resolve(f.View)
		if v.query != q {
			v = q.materialize(v)
		}
		f.View = v
		q.privatize(v)
	}
	RewriteBlockExprs(b, func(e Expr) Expr {
		s, ok := e.(*Subq)
		if !ok {
			return nil
		}
		blk := q.Resolve(s.Block)
		if blk.query != q {
			blk = q.materialize(blk)
		}
		if blk == s.Block {
			return nil
		}
		ns := *s
		ns.Block = blk
		return &ns
	})
	walkBlockExprs(b, func(e Expr) {
		if s, ok := e.(*Subq); ok {
			q.privatize(s.Block)
		}
	})
}

// AdoptCOW replaces q's tree with that of work, a COW clone of q whose
// mutations should become q's state (the winning transformation was applied
// to work). Blocks still shared transfer back untouched; materialized and
// newly created blocks are reowned by q. work must not be used afterwards.
func (q *Query) AdoptCOW(work *Query) {
	if work.cow == nil || work.cow.base != q {
		panic("qtree: AdoptCOW of a query that is not a COW clone of the receiver")
	}
	q.Root = work.Root
	q.Params = work.Params
	q.nextFrom = work.nextFrom
	q.nextBlk = work.nextBlk
	q.reown(q.Root)
}

// COWStats counts the blocks reachable from q's root by ownership: shared
// blocks still alias the COW base, owned blocks are private to q
// (materialized copies and transformation-created blocks). A non-COW query
// reports every block as owned.
func (q *Query) COWStats() (shared, owned int) {
	var walk func(b *Block)
	walk = func(b *Block) {
		if b == nil {
			return
		}
		if b.query == q {
			owned++
		} else {
			shared++
		}
		if b.Set != nil {
			for _, c := range b.Set.Children {
				walk(c)
			}
		}
		for _, f := range b.From {
			if f.View != nil {
				walk(f.View)
			}
		}
		walkBlockExprs(b, func(e Expr) {
			if s, ok := e.(*Subq); ok {
				walk(s.Block)
			}
		})
	}
	walk(q.Root)
	return shared, owned
}

// OwnedApproxBytes estimates the private tree memory this query paid for
// its state, in the units of ApproxBytes. On a COW clone, shared blocks
// cost nothing and owned blocks cost their structural copy — block shell,
// FromItem structs, and a pointer per expression node — because under the
// COW discipline expression nodes are immutable and shared freely (a
// materialized block keeps the base's nodes; a rewrite builds a new spine
// that both modes allocate identically). The walk stops at shared
// sub-trees: the owned region is upward-closed, so a shared block never
// has owned descendants. For a non-COW query it equals ApproxBytes —
// a deep clone really does duplicate every expression node per state,
// which is exactly the tax this accounting exposes.
func (q *Query) OwnedApproxBytes() int64 {
	if q.cow == nil {
		return q.ApproxBytes()
	}
	var total int64
	var walk func(b *Block)
	walk = func(b *Block) {
		if b == nil || b.query != q {
			return
		}
		total += 256
		for _, f := range b.From {
			total += 128 + int64(len(f.Alias))
		}
		if b.Set != nil {
			for _, c := range b.Set.Children {
				walk(c)
			}
		}
		for _, f := range b.From {
			if f.View != nil {
				walk(f.View)
			}
		}
		walkBlockExprs(b, func(e Expr) {
			total += 8 // slice entry; the node itself is shared
			if s, ok := e.(*Subq); ok {
				walk(s.Block)
			}
		})
	}
	walk(q.Root)
	return total
}

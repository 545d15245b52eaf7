package qtree

import (
	"fmt"

	"repro/internal/catalog"
)

// JoinKind describes how a from item joins into its block. Inner joins are
// expressed as WHERE conjuncts; non-inner kinds carry their own condition
// and impose a partial order on the join (the item must follow every item
// its condition references), exactly as the paper describes for semijoin,
// antijoin and outer join (§2.1.1).
type JoinKind uint8

// Join kinds.
const (
	JoinInner JoinKind = iota
	JoinSemi
	JoinAnti
	// JoinNullAwareAnti is the null-aware antijoin used to unnest NOT IN /
	// ALL subqueries whose connecting columns may be null (§2.1.1 mentions
	// this variant as upcoming in "the next release of Oracle"; we
	// implement it).
	JoinNullAwareAnti
	JoinLeftOuter
	JoinFullOuter
)

var joinKindNames = [...]string{
	JoinInner: "INNER", JoinSemi: "SEMI", JoinAnti: "ANTI",
	JoinNullAwareAnti: "NULL-AWARE ANTI", JoinLeftOuter: "LEFT OUTER",
	JoinFullOuter: "FULL OUTER",
}

func (k JoinKind) String() string { return joinKindNames[k] }

// FromItem is one entry in a block's from list: a base table or an inline
// view, with its join kind and (for non-inner joins) join condition.
type FromItem struct {
	ID    FromID
	Alias string
	Table *catalog.Table // base table, or nil
	View  *Block         // inline view, or nil
	Kind  JoinKind
	Cond  []Expr // join condition conjuncts for non-inner kinds
	// Lateral marks a view whose body contains correlated references to
	// sibling from items — the result of join predicate pushdown (§2.2.3).
	// A lateral view must be joined (by nested loops) after the items it
	// references.
	Lateral bool
}

// IsTable reports whether the item is a base table.
func (f *FromItem) IsTable() bool { return f.Table != nil }

// NumCols returns the number of output columns of the item (including the
// implicit rowid column for base tables).
func (f *FromItem) NumCols() int {
	if f.Table != nil {
		return f.Table.NumCols() + 1 // + rowid
	}
	return len(f.View.OutCols())
}

// ColName returns the display name of output column ord.
func (f *FromItem) ColName(ord int) string {
	if f.Table != nil {
		if ord == f.Table.RowidOrdinal() {
			return "ROWID"
		}
		if ord >= 0 && ord < len(f.Table.Cols) {
			return f.Table.Cols[ord].Name
		}
		return fmt.Sprintf("C%d", ord)
	}
	cols := f.View.OutCols()
	if ord >= 0 && ord < len(cols) {
		return cols[ord]
	}
	return fmt.Sprintf("C%d", ord)
}

// SelectItem is one output column of a block.
type SelectItem struct {
	Expr  Expr
	Alias string
}

// OrderItem is one ORDER BY entry.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// SetOpKind enumerates set operations between blocks.
type SetOpKind uint8

// Set operation kinds.
const (
	SetUnion SetOpKind = iota
	SetUnionAll
	SetIntersect
	SetMinus
)

var setOpNames = [...]string{
	SetUnion: "UNION", SetUnionAll: "UNION ALL",
	SetIntersect: "INTERSECT", SetMinus: "MINUS",
}

func (k SetOpKind) String() string { return setOpNames[k] }

// SetOp makes a block a set operation over child blocks instead of a
// SELECT. All children have the same output arity.
type SetOp struct {
	Kind     SetOpKind
	Children []*Block
}

// Block is one query block: either a SELECT (Set == nil) or a set operation
// (Set != nil, in which case the SELECT fields other than OrderBy/Limit are
// unused).
type Block struct {
	ID           int
	Distinct     bool
	Select       []SelectItem
	From         []*FromItem
	Where        []Expr // conjuncts
	GroupBy      []Expr
	GroupingSets [][]int // indexes into GroupBy; nil means a single full set
	Having       []Expr  // conjuncts
	OrderBy      []OrderItem
	// Limit is the maximum number of rows to return (from a "rownum < k"
	// or "rownum <= k" predicate); 0 means unlimited.
	Limit int64
	Set   *SetOp

	query *Query // owning query, for ID allocation during transformation
}

// Query owns a tree of blocks and allocates query-unique IDs.
type Query struct {
	Root    *Block
	Catalog *catalog.Catalog
	// Params lists the query's bind-parameter names in ordinal order (the
	// Ord field of qtree.Param indexes this slice). Named parameters appear
	// once regardless of how many times they occur in the text.
	Params   []string
	nextFrom FromID
	nextBlk  int
	// cow, when non-nil, marks this query as a copy-on-write clone sharing
	// blocks with a base query (see cow.go).
	cow *cowState
}

// NewQuery creates an empty query against a catalog.
func NewQuery(cat *catalog.Catalog) *Query {
	return &Query{Catalog: cat, nextFrom: 1, nextBlk: 1}
}

// NewBlock allocates a block owned by this query.
func (q *Query) NewBlock() *Block {
	b := &Block{ID: q.nextBlk, query: q}
	q.nextBlk++
	return b
}

// NewFromID allocates a fresh from-item ID.
func (q *Query) NewFromID() FromID {
	id := q.nextFrom
	q.nextFrom++
	return id
}

// Query returns the owning query of the block.
func (b *Block) Query() *Query { return b.query }

// IsSetOp reports whether the block is a set operation.
func (b *Block) IsSetOp() bool { return b.Set != nil }

// HasGroupBy reports whether the block aggregates (explicit GROUP BY or
// aggregate functions with an implicit all-rows group).
func (b *Block) HasGroupBy() bool {
	if len(b.GroupBy) > 0 {
		return true
	}
	for _, it := range b.Select {
		if ContainsAgg(it.Expr) {
			return true
		}
	}
	for _, h := range b.Having {
		if ContainsAgg(h) {
			return true
		}
	}
	return false
}

// OutCols returns the output column names of the block.
func (b *Block) OutCols() []string {
	if b.Set != nil {
		return b.Set.Children[0].OutCols()
	}
	out := make([]string, len(b.Select))
	for i, it := range b.Select {
		if it.Alias != "" {
			out[i] = it.Alias
		} else if c, ok := it.Expr.(*Col); ok {
			out[i] = c.Name
		} else {
			out[i] = fmt.Sprintf("COL%d", i+1)
		}
	}
	return out
}

// FindFrom returns the from item with the given ID in this block (not
// descending into views), or nil.
func (b *Block) FindFrom(id FromID) *FromItem {
	for _, f := range b.From {
		if f.ID == id {
			return f
		}
	}
	return nil
}

// Clone deep-copies the whole query, re-allocating every from-item and
// block identity. The returned remap translates old from IDs to new ones so
// callers can carry references (e.g. transformation directives, §3.1)
// across the copy.
func (q *Query) Clone() (*Query, *Remap) {
	fullCloneCount.Add(1)
	nq := &Query{Catalog: q.Catalog, Params: append([]string(nil), q.Params...), nextFrom: 1, nextBlk: 1}
	r := &Remap{IDs: map[FromID]FromID{}, dst: nq}
	registerFromIDs(q.Root, r)
	nq.Root = q.Root.cloneStructure(r)
	return nq, r
}

// CloneBlockInto deep-copies block b, allocating fresh IDs in query q.
// References to from items defined outside b (correlation) are preserved.
// This supports transformations that replicate a block within the same
// query, such as disjunction-into-UNION-ALL and join factorization.
func CloneBlockInto(b *Block, q *Query) *Block {
	r := &Remap{IDs: map[FromID]FromID{}, dst: q}
	registerFromIDs(b, r)
	return b.cloneStructure(r)
}

// RegisterBlockIDs pre-registers fresh IDs in r for every from item of the
// block subtree. Callers cloning an expression that embeds subquery blocks
// must register those blocks first so the clones get distinct identities.
func RegisterBlockIDs(b *Block, r *Remap) { registerFromIDs(b, r) }

// registerFromIDs pre-registers fresh IDs for every from item in the block
// subtree (including views and subquery blocks) so that references remap
// consistently regardless of clone order.
func registerFromIDs(b *Block, r *Remap) {
	if b.Set != nil {
		for _, c := range b.Set.Children {
			registerFromIDs(c, r)
		}
	}
	for _, f := range b.From {
		r.IDs[f.ID] = r.dst.NewFromID()
		if f.View != nil {
			registerFromIDs(f.View, r)
		}
	}
	walkBlockExprs(b, func(e Expr) {
		if s, ok := e.(*Subq); ok {
			registerFromIDs(s.Block, r)
		}
	})
}

func (b *Block) cloneStructure(r *Remap) *Block {
	nb := r.dst.NewBlock()
	nb.Distinct = b.Distinct
	nb.Limit = b.Limit
	if b.Set != nil {
		nb.Set = &SetOp{Kind: b.Set.Kind}
		for _, c := range b.Set.Children {
			nb.Set.Children = append(nb.Set.Children, c.cloneStructure(r))
		}
	}
	for _, f := range b.From {
		nf := &FromItem{
			ID: r.lookup(f.ID), Alias: f.Alias, Table: f.Table,
			Kind: f.Kind, Lateral: f.Lateral,
		}
		if f.View != nil {
			nf.View = f.View.cloneStructure(r)
		}
		nf.Cond = cloneExprs(f.Cond, r)
		nb.From = append(nb.From, nf)
	}
	for _, it := range b.Select {
		nb.Select = append(nb.Select, SelectItem{Expr: it.Expr.Clone(r), Alias: it.Alias})
	}
	nb.Where = cloneExprs(b.Where, r)
	nb.GroupBy = cloneExprs(b.GroupBy, r)
	if b.GroupingSets != nil {
		nb.GroupingSets = make([][]int, len(b.GroupingSets))
		for i, s := range b.GroupingSets {
			nb.GroupingSets[i] = append([]int(nil), s...)
		}
	}
	nb.Having = cloneExprs(b.Having, r)
	for _, o := range b.OrderBy {
		nb.OrderBy = append(nb.OrderBy, OrderItem{Expr: o.Expr.Clone(r), Desc: o.Desc})
	}
	return nb
}

// walkBlockExprs applies f to every expression in the block (not descending
// into views or subquery blocks — f receives the Subq node itself).
func walkBlockExprs(b *Block, f func(Expr)) {
	visit := func(e Expr) {
		if e != nil {
			WalkExpr(e, func(x Expr) bool {
				f(x)
				_, isSubq := x.(*Subq)
				return !isSubq // don't descend into subquery blocks
			})
		}
	}
	for _, it := range b.Select {
		visit(it.Expr)
	}
	for _, fi := range b.From {
		for _, c := range fi.Cond {
			visit(c)
		}
	}
	for _, e := range b.Where {
		visit(e)
	}
	for _, e := range b.GroupBy {
		visit(e)
	}
	for _, e := range b.Having {
		visit(e)
	}
	for _, o := range b.OrderBy {
		visit(o.Expr)
	}
}

// VisitExprs applies f to every expression in the block, without descending
// into view blocks or subquery blocks.
func (b *Block) VisitExprs(f func(Expr)) { walkBlockExprs(b, f) }

// WalkExpr walks e in pre-order. f returns whether to descend into the
// node's children. Subquery blocks are not entered (the *Subq node is
// visited; its Left expressions are walked when f returns true).
func WalkExpr(e Expr, f func(Expr) bool) {
	if e == nil || !f(e) {
		return
	}
	switch v := e.(type) {
	case *Bin:
		WalkExpr(v.L, f)
		WalkExpr(v.R, f)
	case *Not:
		WalkExpr(v.E, f)
	case *IsNull:
		WalkExpr(v.E, f)
	case *Like:
		WalkExpr(v.E, f)
		WalkExpr(v.Pattern, f)
	case *InList:
		WalkExpr(v.E, f)
		for _, x := range v.Vals {
			WalkExpr(x, f)
		}
	case *Func:
		for _, x := range v.Args {
			WalkExpr(x, f)
		}
	case *LNNVL:
		WalkExpr(v.E, f)
	case *IsTrue:
		WalkExpr(v.E, f)
	case *Agg:
		if v.Arg != nil {
			WalkExpr(v.Arg, f)
		}
	case *WinFunc:
		if v.Arg != nil {
			WalkExpr(v.Arg, f)
		}
		for _, x := range v.PartitionBy {
			WalkExpr(x, f)
		}
		for _, o := range v.OrderBy {
			WalkExpr(o.Expr, f)
		}
	case *Subq:
		for _, x := range v.Left {
			WalkExpr(x, f)
		}
	case *Case:
		for _, w := range v.Whens {
			WalkExpr(w.Cond, f)
			WalkExpr(w.Result, f)
		}
		if v.Else != nil {
			WalkExpr(v.Else, f)
		}
	}
}

// ContainsAgg reports whether e contains an aggregate function reference
// (not inside a nested subquery).
func ContainsAgg(e Expr) bool {
	found := false
	WalkExpr(e, func(x Expr) bool {
		switch x.(type) {
		case *Agg:
			found = true
			return false
		case *Subq:
			return false
		}
		return !found
	})
	return found
}

// ColsUsed collects the distinct from IDs referenced by e, including those
// referenced inside subquery blocks (correlation), into set.
func ColsUsed(e Expr, set map[FromID]bool) {
	WalkExpr(e, func(x Expr) bool {
		switch v := x.(type) {
		case *Col:
			set[v.From] = true
		case *Subq:
			collectBlockRefs(v.Block, set)
		}
		return true
	})
}

// collectBlockRefs adds every from ID referenced anywhere in b's subtree.
func collectBlockRefs(b *Block, set map[FromID]bool) {
	walkBlockExprs(b, func(e Expr) {
		switch v := e.(type) {
		case *Col:
			set[v.From] = true
		case *Subq:
			collectBlockRefs(v.Block, set)
		}
	})
	for _, f := range b.From {
		if f.View != nil {
			collectBlockRefs(f.View, set)
		}
	}
	if b.Set != nil {
		for _, c := range b.Set.Children {
			collectBlockRefs(c, set)
		}
	}
}

// LocalFromIDs returns the set of from IDs defined directly in b.
func (b *Block) LocalFromIDs() map[FromID]bool {
	out := map[FromID]bool{}
	for _, f := range b.From {
		out[f.ID] = true
	}
	return out
}

// OuterRefs returns the from IDs referenced by block b (anywhere in its
// subtree) that are not defined in b or any nested block of b — i.e. b's
// correlated references.
func (b *Block) OuterRefs() map[FromID]bool {
	refs := map[FromID]bool{}
	collectBlockRefs(b, refs)
	removeDefined(b, refs)
	return refs
}

func removeDefined(b *Block, refs map[FromID]bool) {
	for _, f := range b.From {
		delete(refs, f.ID)
		if f.View != nil {
			removeDefined(f.View, refs)
		}
	}
	if b.Set != nil {
		for _, c := range b.Set.Children {
			removeDefined(c, refs)
		}
	}
	walkBlockExprs(b, func(e Expr) {
		if s, ok := e.(*Subq); ok {
			removeDefined(s.Block, refs)
		}
	})
}

// IsCorrelated reports whether block b references from items defined
// outside its own subtree.
func (b *Block) IsCorrelated() bool { return len(b.OuterRefs()) > 0 }

// reown points every block of the subtree back at q.
func (q *Query) reown(b *Block) {
	if b == nil {
		return
	}
	b.query = q
	if b.Set != nil {
		for _, c := range b.Set.Children {
			q.reown(c)
		}
	}
	for _, f := range b.From {
		if f.View != nil {
			q.reown(f.View)
		}
	}
	walkBlockExprs(b, func(e Expr) {
		if s, ok := e.(*Subq); ok {
			q.reown(s.Block)
		}
	})
}

// ApproxBytes is a rough estimate of the memory held by the query tree —
// the unit of the cbqt memory budget, which charges one tree copy per
// transformation state evaluated (§3.4.3's explicit memory management).
func (q *Query) ApproxBytes() int64 {
	var total int64
	var walk func(b *Block)
	walk = func(b *Block) {
		if b == nil {
			return
		}
		total += 256 // block header, slices
		if b.Set != nil {
			for _, c := range b.Set.Children {
				walk(c)
			}
		}
		for _, f := range b.From {
			total += 128 + int64(len(f.Alias))
			if f.View != nil {
				walk(f.View)
			}
		}
		walkBlockExprs(b, func(e Expr) {
			total += 48 // expr node
			if s, ok := e.(*Subq); ok {
				walk(s.Block)
			}
		})
	}
	walk(q.Root)
	return total
}

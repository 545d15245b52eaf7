package qtree

import (
	"fmt"
	"slices"

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
	b.VisitExprs(func(e Expr) {
		if s, ok := e.(*Subq); ok {
			registerFromIDs(s.Block, r)
		}
	})
}

// cloneStructure deep-copies b into r's query with a fresh block ID, its
// from IDs translated through r (registerFromIDs must have covered them):
// set-operation branches, then view bodies in from order, then every
// expression slot (cloneExpr), each subquery block in it copied in turn.
func (b *Block) cloneStructure(r *Remap) *Block {
	id := r.dst.nextBlk
	r.dst.nextBlk++
	nb := b.shell(r.dst)
	nb.ID = id
	if nb.Set != nil {
		for i, c := range nb.Set.Children {
			nb.Set.Children[i] = c.cloneStructure(r)
		}
	}
	for _, f := range nb.From {
		f.ID = r.lookup(f.ID)
		if f.View != nil {
			f.View = f.View.cloneStructure(r)
		}
	}
	nb.exprSlots(func(p *Expr) { *p = cloneExpr(*p, r, false) })
	return nb
}

// shell copies b's own structure into a block owned by q: same ID, private
// slices, FromItem structs and SetOp header, shared expression nodes and
// child blocks.
func (b *Block) shell(q *Query) *Block {
	nb := &Block{
		ID:       b.ID,
		Distinct: b.Distinct,
		Limit:    b.Limit,
		Select:   slices.Clone(b.Select),
		Where:    slices.Clone(b.Where),
		GroupBy:  slices.Clone(b.GroupBy),
		Having:   slices.Clone(b.Having),
		OrderBy:  slices.Clone(b.OrderBy),
		query:    q,
	}
	if b.GroupingSets != nil {
		nb.GroupingSets = make([][]int, len(b.GroupingSets))
		for i, s := range b.GroupingSets {
			nb.GroupingSets[i] = slices.Clone(s)
		}
	}
	if len(b.From) > 0 {
		nb.From = make([]*FromItem, len(b.From))
		for i, f := range b.From {
			nf := *f
			nf.Cond = slices.Clone(f.Cond)
			nb.From[i] = &nf
		}
	}
	if b.Set != nil {
		nb.Set = &SetOp{Kind: b.Set.Kind, Children: slices.Clone(b.Set.Children)}
	}
	return nb
}

// exprSlots is the one list of a block's expression slots: it calls f on a
// pointer to the root of each, in order: the select list, each from item's
// ON conjuncts in from order, WHERE, GROUP BY, HAVING and ORDER BY.
func (b *Block) exprSlots(f func(*Expr)) {
	for i := range b.Select {
		f(&b.Select[i].Expr)
	}
	for _, fi := range b.From {
		for i := range fi.Cond {
			f(&fi.Cond[i])
		}
	}
	for i := range b.Where {
		f(&b.Where[i])
	}
	for i := range b.GroupBy {
		f(&b.GroupBy[i])
	}
	for i := range b.Having {
		f(&b.Having[i])
	}
	for i := range b.OrderBy {
		f(&b.OrderBy[i].Expr)
	}
}

// VisitExprs applies f to every expression in the block, a subquery's left
// operands included, without descending into view blocks or subquery blocks
// (f receives the Subq node itself). A subquery nested in another's left
// operands is the block's own, like any other.
func (b *Block) VisitExprs(f func(Expr)) {
	b.exprSlots(func(p *Expr) {
		WalkExpr(*p, func(x Expr) bool {
			f(x)
			return true
		})
	})
}

// WalkExpr walks e in pre-order: a node, then its children (subExprs) in
// order. f returns whether to descend into the node's children. A
// subquery's left operands are its children; its block is not entered.
func WalkExpr(e Expr, f func(Expr) bool) {
	if e == nil || !f(e) {
		return
	}
	switch e.(type) {
	case *Col, *Const:
		return // the commonest leaves, spared the call
	}
	subExprs(e, false, func(c *Expr) { WalkExpr(*c, f) })
}

// ContainsAgg reports whether e contains an aggregate function reference
// (a subquery's left operands included, not inside a subquery block).
func ContainsAgg(e Expr) bool {
	found := false
	WalkExpr(e, func(x Expr) bool {
		_, isAgg := x.(*Agg)
		found = found || isAgg
		return !found
	})
	return found
}

// ContainsSubq reports whether e contains a subquery expression.
func ContainsSubq(e Expr) bool {
	found := false
	WalkExpr(e, func(x Expr) bool {
		if _, ok := x.(*Subq); ok {
			found = true
		}
		return !found
	})
	return found
}

// LocalFromIDs returns the set of from IDs defined directly in b.
func (b *Block) LocalFromIDs() map[FromID]bool {
	out := map[FromID]bool{}
	for _, f := range b.From {
		out[f.ID] = true
	}
	return out
}

// OuterCols calls f, in Cols order, on every column reference in b's
// subtree whose from item is defined outside that subtree: b's correlated
// references. A set operation's output references (From 0) name no from
// item and never count. This is the one definition of correlation: the
// unnester's legality, the planner's execution count, the executor's TIS
// cache key and the cost-annotation key all read it.
func (b *Block) OuterCols(f func(*Col)) {
	defined, cands := make([]FromID, 0, 16), make([]*Col, 0, 16)
	b.walk(func(blk *Block) bool {
		for _, fi := range blk.From {
			defined = append(defined, fi.ID)
		}
		return true
	}, func(c *Col) {
		if c.From != 0 && !slices.Contains(defined, c.From) {
			cands = append(cands, c)
		}
	})
	// An item defined in a block the pass reaches after the reference (which
	// scoping rules out, but a broken tree may hold) still counts as inside.
	for _, c := range cands {
		if !slices.Contains(defined, c.From) {
			f(c)
		}
	}
}

// IsCorrelated reports whether b has an outer reference (OuterCols).
func (b *Block) IsCorrelated() bool {
	correlated := false
	b.OuterCols(func(*Col) { correlated = true })
	return correlated
}

// ApproxBytes is a rough estimate of the memory held by the query tree —
// the unit of the cbqt memory budget, which charges one tree copy beside
// the annotation table for the state being costed (§3.4.3's explicit
// memory management).
func (q *Query) ApproxBytes() int64 {
	var total int64
	q.Root.Walk(func(b *Block) bool {
		total += b.approxBytes(exprNodeBytes)
		return true
	})
	return total
}

const exprNodeBytes = 48 // ApproxBytes' charge for one expression node

// approxBytes is block b's own share of ApproxBytes, charging node bytes
// per expression node.
func (b *Block) approxBytes(node int64) int64 {
	total := int64(256) // block header, slices
	for _, f := range b.From {
		total += 128 + int64(len(f.Alias))
	}
	b.VisitExprs(func(Expr) { total += node })
	return total
}

// Tree walks. children is the one place that knows where nested blocks
// hang, and every subtree traversal below goes through it. The walks that
// stay separate (the deep clone, visitFromItems, privatize and the
// checker's) are listed with their reasons in DESIGN.md.

// children calls f on each block directly nested in b: set-operation
// branches, then view bodies in from order, then subquery blocks in
// expression order (VisitExprs', so a subquery nested in another's left
// operands is a child too). col, when non-nil, is called first on every
// column reference of b's own expressions, a subquery's left operands
// included, in the same pass over them that finds the subquery blocks.
func (b *Block) children(col func(*Col), f func(*Block)) {
	subs := make([]*Block, 0, 16)
	b.VisitExprs(func(x Expr) {
		switch v := x.(type) {
		case *Col:
			if col != nil {
				col(v)
			}
		case *Subq:
			subs = append(subs, v.Block)
		}
	})
	if b.Set != nil {
		for _, c := range b.Set.Children {
			f(c)
		}
	}
	for _, fi := range b.From {
		if fi.View != nil {
			f(fi.View)
		}
	}
	for _, s := range subs {
		f(s)
	}
}

// Walk visits b's subtree in pre-order: a block, then the subtree of each of
// its children in children order. When f returns false the block's
// descendants are skipped.
func (b *Block) Walk(f func(*Block) bool) { b.walk(f, nil) }

// walk is Walk that also calls col on each visited block's column
// references (children's col), after f and before the block's children.
func (b *Block) walk(f func(*Block) bool, col func(*Col)) {
	if b == nil || !f(b) {
		return
	}
	b.children(col, func(c *Block) { c.walk(f, col) })
}

// Cols calls f on every column reference in b's subtree, including those in
// a subquery's left operands.
func (b *Block) Cols(f func(*Col)) {
	b.walk(func(*Block) bool { return true }, f)
}

// ExprCols calls f on every column reference in e, including those inside
// its subquery blocks (correlation).
func ExprCols(e Expr, f func(*Col)) {
	WalkExpr(e, func(x Expr) bool {
		switch v := x.(type) {
		case *Col:
			f(v)
		case *Subq:
			v.Block.Cols(f)
		}
		return true
	})
}

// Defined returns every from ID defined in b's subtree.
func (b *Block) Defined() map[FromID]bool {
	out := map[FromID]bool{}
	b.Walk(func(blk *Block) bool {
		for _, f := range blk.From {
			out[f.ID] = true
		}
		return true
	})
	return out
}

package qtree

import (
	"strconv"
	"strings"
)

// renderForm selects one of the three renderings the writer produces.
type renderForm uint8

const (
	// formDisplay names items by alias and columns by name.
	formDisplay renderForm = iota
	// formCanonical names columns by output ordinal and parameters by slot,
	// which makes the rendering independent of aliasing.
	formCanonical
	// formRaw is Expr.String(): raw from IDs, subquery blocks by block ID.
	formRaw
)

// Namer maps from-item IDs to rendered names and selects the form.
type Namer struct {
	names map[FromID]string
	form  renderForm
	// Canonical form: tnames[i] names the i-th unnamed item the render meets
	// (one of the keyed subtree's own); next counts them.
	tnames []string
	next   int
}

// rawNamer renders Expr.String(): every item is named q<ID>.
var rawNamer = &Namer{form: formRaw}

// DisplayNamer builds a namer from the from-item aliases in the query,
// disambiguating duplicates with the item ID.
func (q *Query) DisplayNamer() *Namer {
	n := &Namer{names: map[FromID]string{}}
	used := map[string]bool{}
	visitFromItems(q.Root, func(f *FromItem) {
		alias := f.Alias
		if alias == "" {
			alias = "T" + strconv.Itoa(int(f.ID))
		}
		key := strings.ToUpper(alias)
		if used[key] {
			alias = alias + "_" + strconv.Itoa(int(f.ID))
			key = strings.ToUpper(alias)
		}
		used[key] = true
		n.names[f.ID] = alias
	})
	return n
}

// visitFromItems walks every from item in the query in deterministic
// pre-order: block from list first, then view bodies, then subquery blocks
// in expression order.
func visitFromItems(b *Block, f func(*FromItem)) {
	if b == nil {
		return
	}
	if b.Set != nil {
		for _, c := range b.Set.Children {
			visitFromItems(c, f)
		}
	}
	for _, fi := range b.From {
		f(fi)
		if fi.View != nil {
			visitFromItems(fi.View, f)
		}
	}
	b.VisitExprs(func(e Expr) {
		if s, ok := e.(*Subq); ok {
			visitFromItems(s.Block, f)
		}
	})
}

// SQL renders the whole query as SQL text (with pseudo-SQL extensions for
// semijoin/antijoin and lateral views, which have no surface syntax).
func (q *Query) SQL() string {
	return q.Root.SQL(q.DisplayNamer())
}

// CanonicalKey renders block b in canonical form for use as a cost
// annotation cache key (§3.4.2). Names are assigned relative to b's own
// subtree so that structurally identical blocks produce identical keys even
// when sibling parts of the query differ between transformation states.
// Correlated references to items outside the subtree are rendered by the
// outer item's table name and user alias, which survive deep copies.
func (q *Query) CanonicalKey(b *Block) string {
	return q.BlockKeyer().Key(b)
}

// BlockKeyer renders the canonical keys of many blocks of one query. Naming
// a correlated reference needs the from item it points at, which may sit
// anywhere in the query: the keyer finds them all in one walk from the root,
// taken on the first correlated reference and shared by every later key. It
// is valid while the query's from items are not added, removed or renamed,
// and is not safe for concurrent use.
type BlockKeyer struct {
	q     *Query
	outer map[FromID]*FromItem
	// n is reused by every key: its map is cleared and its count reset.
	n Namer
}

// BlockKeyer returns a keyer for q's blocks.
func (q *Query) BlockKeyer() *BlockKeyer {
	return &BlockKeyer{q: q, n: Namer{names: map[FromID]string{}, form: formCanonical}}
}

// Key is q.CanonicalKey(b). The outer references are named up front; the
// render names b's own items t0, t1, ... in the order it first meets them.
func (k *BlockKeyer) Key(b *Block) string {
	names := k.n.names
	clear(names)
	k.n.next = 0
	// Outer items referenced from within b: name by stable attributes.
	b.OuterCols(func(c *Col) {
		id := c.From
		if _, named := names[id]; named {
			return
		}
		if k.outer == nil {
			k.outer = map[FromID]*FromItem{}
			k.q.Root.Walk(func(blk *Block) bool {
				for _, f := range blk.From {
					k.outer[f.ID] = f
				}
				return true
			})
		}
		f := k.outer[id]
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
	return b.SQL(&k.n)
}

// SQL renders the block using the given namer.
func (b *Block) SQL(n *Namer) string {
	w := sqlWriter{n: n}
	w.Grow(256)
	w.block(b)
	return w.String()
}

// rawString is Expr.String() for every expression kind but Const.
func rawString(e Expr) string {
	w := sqlWriter{n: rawNamer}
	w.Grow(64)
	w.expr(e)
	return w.String()
}

// sqlWriter is the one renderer: display SQL, canonical keys and
// Expr.String() differ only in what the namer says.
type sqlWriter struct {
	strings.Builder
	n *Namer
}

// s writes the strings in order.
func (w *sqlWriter) s(parts ...string) {
	for _, p := range parts {
		w.WriteString(p)
	}
}

func (w *sqlWriter) int(i int64) {
	var a [20]byte
	w.Write(strconv.AppendInt(a[:0], i, 10))
}

// wrap writes e between pre and post.
func (w *sqlWriter) wrap(pre string, e Expr, post string) {
	w.s(pre)
	w.expr(e)
	w.s(post)
}

// list writes es separated by sep.
func (w *sqlWriter) list(es []Expr, sep string) {
	for i, e := range es {
		if i > 0 {
			w.s(sep)
		}
		w.expr(e)
	}
}

// name writes the rendered name of a from item.
func (w *sqlWriter) name(id FromID) {
	if s, ok := w.n.names[id]; ok {
		w.s(s)
		return
	}
	if n := w.n; n.form == formCanonical {
		if n.next == len(n.tnames) {
			n.tnames = append(n.tnames, "t"+strconv.Itoa(n.next))
		}
		n.names[id] = n.tnames[n.next]
		n.next++
		w.s(n.names[id])
		return
	}
	w.s("q")
	w.int(int64(id))
}

func (w *sqlWriter) block(b *Block) {
	if b.Set != nil {
		for i, c := range b.Set.Children {
			if i > 0 {
				w.s(" ", b.Set.Kind.String(), " ")
			}
			w.s("(")
			w.block(c)
			w.s(")")
		}
		w.orderLimit(b)
		return
	}
	w.s("SELECT ")
	if b.Distinct {
		w.s("DISTINCT ")
	}
	for i, it := range b.Select {
		if i > 0 {
			w.s(", ")
		}
		w.expr(it.Expr)
		if it.Alias != "" && w.n.form != formCanonical {
			w.s(" ", it.Alias)
		}
	}
	w.s(" FROM ")
	for i, f := range b.From {
		if i > 0 {
			w.s(", ")
		}
		w.fromItem(f)
	}
	if len(b.Where) > 0 || b.Limit > 0 {
		w.s(" WHERE ")
		w.list(b.Where, " AND ")
		if b.Limit > 0 {
			if len(b.Where) > 0 {
				w.s(" AND ")
			}
			w.s("ROWNUM <= ")
			w.int(b.Limit)
		}
	}
	if len(b.GroupBy) > 0 {
		w.s(" GROUP BY ")
		if b.GroupingSets != nil {
			w.s("GROUPING SETS (")
			for i, set := range b.GroupingSets {
				if i > 0 {
					w.s(", ")
				}
				w.s("(")
				for j, idx := range set {
					if j > 0 {
						w.s(", ")
					}
					w.expr(b.GroupBy[idx])
				}
				w.s(")")
			}
			w.s(")")
		} else {
			w.list(b.GroupBy, ", ")
		}
	}
	if len(b.Having) > 0 {
		w.s(" HAVING ")
		w.list(b.Having, " AND ")
	}
	w.orderLimit(b)
}

func (w *sqlWriter) orderLimit(b *Block) {
	if len(b.OrderBy) > 0 {
		w.s(" ORDER BY ")
		w.orderItems(b.OrderBy)
	}
	if b.Set != nil && b.Limit > 0 {
		w.s(" /* ROWNUM <= ")
		w.int(b.Limit)
		w.s(" */")
	}
}

func (w *sqlWriter) orderItems(os []OrderItem) {
	for i, o := range os {
		if i > 0 {
			w.s(", ")
		}
		w.expr(o.Expr)
		if o.Desc {
			w.s(" DESC")
		}
	}
}

func (w *sqlWriter) fromItem(f *FromItem) {
	if f.Kind != JoinInner {
		w.s(f.Kind.String(), " JOIN ")
	}
	if f.Lateral {
		w.s("LATERAL ")
	}
	if f.Table != nil {
		w.s(f.Table.Name, " ")
	} else {
		w.s("(")
		w.block(f.View)
		w.s(") ")
	}
	w.name(f.ID)
	if len(f.Cond) > 0 {
		w.s(" ON (")
		w.list(f.Cond, " AND ")
		w.s(")")
	}
}

func (w *sqlWriter) expr(e Expr) {
	switch v := e.(type) {
	case *Const:
		w.s(v.Val.String())
	case *Param:
		if w.n.form != formCanonical {
			w.s(":", v.Name)
			return
		}
		// Canonical cache keys identify parameters by slot so that
		// structurally identical blocks match regardless of names.
		w.s(":$")
		w.int(int64(v.Ord))
	case *Col:
		switch {
		case v.From == 0 && w.n.form != formRaw:
			w.s(v.Name) // set-operation output reference
		case w.n.form == formCanonical:
			w.name(v.From)
			w.s(".#")
			w.int(int64(v.Ord))
		default:
			w.name(v.From)
			w.s(".", v.Name)
		}
	case *Bin:
		w.wrap("(", v.L, " "+v.Op.String()+" ")
		w.wrap("", v.R, ")")
	case *Not:
		w.wrap("NOT (", v.E, ")")
	case *IsNull:
		if v.Neg {
			w.wrap("", v.E, " IS NOT NULL")
		} else {
			w.wrap("", v.E, " IS NULL")
		}
	case *Like:
		w.expr(v.E)
		if v.Neg {
			w.s(" NOT")
		}
		w.wrap(" LIKE ", v.Pattern, "")
	case *InList:
		w.expr(v.E)
		if v.Neg {
			w.s(" NOT")
		}
		w.s(" IN (")
		w.list(v.Vals, ", ")
		w.s(")")
	case *Func:
		w.s(v.Def.Name, "(")
		w.list(v.Args, ", ")
		w.s(")")
	case *LNNVL:
		w.wrap("LNNVL(", v.E, ")")
	case *IsTrue:
		w.wrap("(", v.E, ") IS TRUE")
	case *Agg:
		switch {
		case v.Star:
			w.s("COUNT(*)")
		case v.Distinct:
			w.wrap(v.Op.String()+"(DISTINCT ", v.Arg, ")")
		default:
			w.wrap(v.Op.String()+"(", v.Arg, ")")
		}
	case *WinFunc:
		w.s(v.Op.String(), "(")
		switch {
		case v.Op == WinRowNumber:
		case v.Arg != nil:
			w.expr(v.Arg)
		default:
			w.s("*")
		}
		w.s(") OVER (")
		if len(v.PartitionBy) > 0 {
			w.s("PARTITION BY ")
			w.list(v.PartitionBy, ", ")
		}
		if len(v.OrderBy) > 0 {
			if len(v.PartitionBy) > 0 {
				w.s(" ")
			}
			w.s("ORDER BY ")
			w.orderItems(v.OrderBy)
		}
		w.s(")")
	case *Subq:
		w.subq(v)
	case *Case:
		w.s("CASE")
		for _, c := range v.Whens {
			w.wrap(" WHEN ", c.Cond, "")
			w.wrap(" THEN ", c.Result, "")
		}
		if v.Else != nil {
			w.wrap(" ELSE ", v.Else, "")
		}
		w.s(" END")
	}
}

func (w *sqlWriter) subq(v *Subq) {
	switch {
	case v.Kind == SubqExists || v.Kind == SubqNotExists:
		w.s(v.Kind.String(), " ")
	case v.Kind == SubqScalar:
	case w.n.form == formRaw:
		w.s("[")
		w.list(v.Left, " ")
		w.s("] ", v.Kind.String(), " ")
	default:
		if len(v.Left) == 1 {
			w.expr(v.Left[0])
		} else {
			w.s("(")
			w.list(v.Left, ", ")
			w.s(")")
		}
		switch v.Kind {
		case SubqIn:
			w.s(" IN ")
		case SubqNotIn:
			w.s(" NOT IN ")
		default:
			w.s(" ", v.Op.String(), " ", v.Kind.String(), " ")
		}
	}
	if w.n.form == formRaw {
		// The raw form names the block instead of rendering it.
		w.s("(subquery b")
		w.int(int64(v.Block.ID))
		w.s(")")
		return
	}
	w.s("(")
	w.block(v.Block)
	w.s(")")
}

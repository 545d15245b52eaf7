package qtree

import (
	"fmt"
	"strings"
)

// Namer maps from-item IDs to display aliases during SQL rendering.
type Namer struct {
	names map[FromID]string
	// ordinals switches column rendering from names to output ordinals,
	// which makes the rendering canonical (independent of aliasing).
	ordinals bool
}

// name returns the rendered alias for a from item.
func (n *Namer) name(id FromID) string {
	if s, ok := n.names[id]; ok {
		return s
	}
	return fmt.Sprintf("q%d", id)
}

// DisplayNamer builds a namer from the from-item aliases in the query,
// disambiguating duplicates with the item ID.
func (q *Query) DisplayNamer() *Namer {
	n := &Namer{names: map[FromID]string{}}
	used := map[string]bool{}
	visitFromItems(q.Root, func(f *FromItem) {
		alias := f.Alias
		if alias == "" {
			alias = fmt.Sprintf("T%d", f.ID)
		}
		key := strings.ToUpper(alias)
		if used[key] {
			alias = fmt.Sprintf("%s_%d", alias, f.ID)
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
}

// BlockKeyer returns a keyer for q's blocks.
func (q *Query) BlockKeyer() *BlockKeyer { return &BlockKeyer{q: q} }

// Key is q.CanonicalKey(b).
func (k *BlockKeyer) Key(b *Block) string {
	n := &Namer{names: map[FromID]string{}, ordinals: true}
	i := 0
	visitFromItems(b, func(f *FromItem) {
		n.names[f.ID] = fmt.Sprintf("t%d", i)
		i++
	})
	// Outer items referenced from within b: name by stable attributes.
	b.Cols(func(c *Col) {
		id := c.From
		if _, named := n.names[id]; named {
			return
		}
		if k.outer == nil {
			k.outer = map[FromID]*FromItem{}
			visitFromItems(k.q.Root, func(f *FromItem) {
				k.outer[f.ID] = f
			})
		}
		f := k.outer[id]
		if f == nil {
			n.names[id] = fmt.Sprintf("x%d", id)
			return
		}
		tbl := "view"
		if f.Table != nil {
			tbl = f.Table.Name
		}
		n.names[id] = fmt.Sprintf("x:%s~%s", tbl, f.Alias)
	})
	return b.SQL(n)
}

// SQL renders the block using the given namer.
func (b *Block) SQL(n *Namer) string {
	var sb strings.Builder
	b.writeSQL(&sb, n)
	return sb.String()
}

func (b *Block) writeSQL(sb *strings.Builder, n *Namer) {
	if b.Set != nil {
		for i, c := range b.Set.Children {
			if i > 0 {
				sb.WriteString(" ")
				sb.WriteString(b.Set.Kind.String())
				sb.WriteString(" ")
			}
			sb.WriteString("(")
			c.writeSQL(sb, n)
			sb.WriteString(")")
		}
		b.writeOrderLimit(sb, n)
		return
	}
	sb.WriteString("SELECT ")
	if b.Distinct {
		sb.WriteString("DISTINCT ")
	}
	for i, it := range b.Select {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(exprSQL(it.Expr, n))
		if it.Alias != "" && !n.ordinals {
			sb.WriteString(" ")
			sb.WriteString(it.Alias)
		}
	}
	sb.WriteString(" FROM ")
	for i, f := range b.From {
		if i > 0 {
			sb.WriteString(", ")
		}
		f.writeSQL(sb, n)
	}
	if len(b.Where) > 0 || b.Limit > 0 {
		sb.WriteString(" WHERE ")
		for i, e := range b.Where {
			if i > 0 {
				sb.WriteString(" AND ")
			}
			sb.WriteString(exprSQL(e, n))
		}
		if b.Limit > 0 {
			if len(b.Where) > 0 {
				sb.WriteString(" AND ")
			}
			fmt.Fprintf(sb, "ROWNUM <= %d", b.Limit)
		}
	}
	if len(b.GroupBy) > 0 {
		sb.WriteString(" GROUP BY ")
		if b.GroupingSets != nil {
			sb.WriteString("GROUPING SETS (")
			for i, set := range b.GroupingSets {
				if i > 0 {
					sb.WriteString(", ")
				}
				sb.WriteString("(")
				for j, idx := range set {
					if j > 0 {
						sb.WriteString(", ")
					}
					sb.WriteString(exprSQL(b.GroupBy[idx], n))
				}
				sb.WriteString(")")
			}
			sb.WriteString(")")
		} else {
			for i, g := range b.GroupBy {
				if i > 0 {
					sb.WriteString(", ")
				}
				sb.WriteString(exprSQL(g, n))
			}
		}
	}
	if len(b.Having) > 0 {
		sb.WriteString(" HAVING ")
		for i, e := range b.Having {
			if i > 0 {
				sb.WriteString(" AND ")
			}
			sb.WriteString(exprSQL(e, n))
		}
	}
	b.writeOrderLimit(sb, n)
}

func (b *Block) writeOrderLimit(sb *strings.Builder, n *Namer) {
	if len(b.OrderBy) > 0 {
		sb.WriteString(" ORDER BY ")
		for i, o := range b.OrderBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(exprSQL(o.Expr, n))
			if o.Desc {
				sb.WriteString(" DESC")
			}
		}
	}
	if b.Set != nil && b.Limit > 0 {
		fmt.Fprintf(sb, " /* ROWNUM <= %d */", b.Limit)
	}
}

func (f *FromItem) writeSQL(sb *strings.Builder, n *Namer) {
	if f.Kind != JoinInner {
		sb.WriteString(f.Kind.String())
		sb.WriteString(" JOIN ")
	}
	if f.Lateral {
		sb.WriteString("LATERAL ")
	}
	if f.Table != nil {
		sb.WriteString(f.Table.Name)
		sb.WriteString(" ")
		sb.WriteString(n.name(f.ID))
	} else {
		sb.WriteString("(")
		f.View.writeSQL(sb, n)
		sb.WriteString(") ")
		sb.WriteString(n.name(f.ID))
	}
	if len(f.Cond) > 0 {
		sb.WriteString(" ON (")
		for i, c := range f.Cond {
			if i > 0 {
				sb.WriteString(" AND ")
			}
			sb.WriteString(exprSQL(c, n))
		}
		sb.WriteString(")")
	}
}

// exprSQL renders an expression with resolved aliases.
func exprSQL(e Expr, n *Namer) string {
	switch v := e.(type) {
	case *Const:
		return v.Val.String()
	case *Param:
		if n.ordinals {
			// Canonical cache keys identify parameters by slot so that
			// structurally identical blocks match regardless of names.
			return fmt.Sprintf(":$%d", v.Ord)
		}
		return ":" + v.Name
	case *Col:
		if v.From == 0 {
			return v.Name // set-operation output reference
		}
		if n.ordinals {
			return fmt.Sprintf("%s.#%d", n.name(v.From), v.Ord)
		}
		return fmt.Sprintf("%s.%s", n.name(v.From), v.Name)
	case *Bin:
		return fmt.Sprintf("(%s %s %s)", exprSQL(v.L, n), v.Op, exprSQL(v.R, n))
	case *Not:
		return fmt.Sprintf("NOT (%s)", exprSQL(v.E, n))
	case *IsNull:
		if v.Neg {
			return exprSQL(v.E, n) + " IS NOT NULL"
		}
		return exprSQL(v.E, n) + " IS NULL"
	case *Like:
		neg := ""
		if v.Neg {
			neg = " NOT"
		}
		return fmt.Sprintf("%s%s LIKE %s", exprSQL(v.E, n), neg, exprSQL(v.Pattern, n))
	case *InList:
		neg := ""
		if v.Neg {
			neg = " NOT"
		}
		parts := make([]string, len(v.Vals))
		for i, x := range v.Vals {
			parts[i] = exprSQL(x, n)
		}
		return fmt.Sprintf("%s%s IN (%s)", exprSQL(v.E, n), neg, strings.Join(parts, ", "))
	case *Func:
		parts := make([]string, len(v.Args))
		for i, x := range v.Args {
			parts[i] = exprSQL(x, n)
		}
		return fmt.Sprintf("%s(%s)", v.Def.Name, strings.Join(parts, ", "))
	case *LNNVL:
		return fmt.Sprintf("LNNVL(%s)", exprSQL(v.E, n))
	case *IsTrue:
		return fmt.Sprintf("(%s) IS TRUE", exprSQL(v.E, n))
	case *Agg:
		if v.Star {
			return "COUNT(*)"
		}
		d := ""
		if v.Distinct {
			d = "DISTINCT "
		}
		return fmt.Sprintf("%s(%s%s)", v.Op, d, exprSQL(v.Arg, n))
	case *WinFunc:
		arg := "*"
		if v.Arg != nil {
			arg = exprSQL(v.Arg, n)
		}
		if v.Op == WinRowNumber {
			arg = ""
		}
		var parts []string
		if len(v.PartitionBy) > 0 {
			ps := make([]string, len(v.PartitionBy))
			for i, x := range v.PartitionBy {
				ps[i] = exprSQL(x, n)
			}
			parts = append(parts, "PARTITION BY "+strings.Join(ps, ", "))
		}
		if len(v.OrderBy) > 0 {
			os := make([]string, len(v.OrderBy))
			for i, o := range v.OrderBy {
				os[i] = exprSQL(o.Expr, n)
				if o.Desc {
					os[i] += " DESC"
				}
			}
			parts = append(parts, "ORDER BY "+strings.Join(os, ", "))
		}
		return fmt.Sprintf("%s(%s) OVER (%s)", v.Op, arg, strings.Join(parts, " "))
	case *Subq:
		inner := v.Block.SQL(n)
		switch v.Kind {
		case SubqExists:
			return fmt.Sprintf("EXISTS (%s)", inner)
		case SubqNotExists:
			return fmt.Sprintf("NOT EXISTS (%s)", inner)
		case SubqScalar:
			return fmt.Sprintf("(%s)", inner)
		case SubqIn, SubqNotIn:
			neg := ""
			if v.Kind == SubqNotIn {
				neg = " NOT"
			}
			return fmt.Sprintf("%s%s IN (%s)", leftSQL(v.Left, n), neg, inner)
		case SubqAnyCmp:
			return fmt.Sprintf("%s %s ANY (%s)", leftSQL(v.Left, n), v.Op, inner)
		case SubqAllCmp:
			return fmt.Sprintf("%s %s ALL (%s)", leftSQL(v.Left, n), v.Op, inner)
		}
	case *Case:
		var sb strings.Builder
		sb.WriteString("CASE")
		for _, w := range v.Whens {
			fmt.Fprintf(&sb, " WHEN %s THEN %s", exprSQL(w.Cond, n), exprSQL(w.Result, n))
		}
		if v.Else != nil {
			fmt.Fprintf(&sb, " ELSE %s", exprSQL(v.Else, n))
		}
		sb.WriteString(" END")
		return sb.String()
	}
	return fmt.Sprintf("<%T>", e)
}

func leftSQL(left []Expr, n *Namer) string {
	if len(left) == 1 {
		return exprSQL(left[0], n)
	}
	parts := make([]string, len(left))
	for i, x := range left {
		parts[i] = exprSQL(x, n)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

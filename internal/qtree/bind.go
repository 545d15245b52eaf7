package qtree

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/catalog"
	"repro/internal/datum"
	"repro/internal/sql"
)

// Bind performs semantic analysis of a parsed statement against a catalog
// and produces the query tree.
func Bind(stmt *sql.SelectStmt, cat *catalog.Catalog) (*Query, error) {
	q := NewQuery(cat)
	b, err := bindSelectStmt(q, stmt, nil)
	if err != nil {
		return nil, err
	}
	q.Root = b
	return q, nil
}

// MustBind parses and binds SQL text; it panics on error. For tests and
// examples.
func MustBind(src string, cat *catalog.Catalog) *Query {
	stmt, err := sql.Parse(src)
	if err != nil {
		panic(err)
	}
	q, err := Bind(stmt, cat)
	if err != nil {
		panic(err)
	}
	return q
}

// BindSQL parses and binds SQL text.
func BindSQL(src string, cat *catalog.Catalog) (*Query, error) {
	stmt, err := sql.Parse(src)
	if err != nil {
		return nil, err
	}
	return Bind(stmt, cat)
}

// bindParam resolves an AST parameter to a typed placeholder, allocating a
// parameter ordinal on the query. Named parameters with the same
// (case-insensitive) name share one ordinal; each positional "?" gets its
// own slot, named "?<n>" after its occurrence order.
func (q *Query) bindParam(p *sql.Param) *Param {
	name := strings.ToUpper(p.Name)
	if name == "" {
		name = fmt.Sprintf("?%d", p.Pos+1)
	}
	for i, n := range q.Params {
		if n == name {
			return &Param{Ord: i, Name: name}
		}
	}
	q.Params = append(q.Params, name)
	return &Param{Ord: len(q.Params) - 1, Name: name}
}

// scope is the name-resolution environment: the from items visible in the
// current block, chained to enclosing blocks for correlation.
type scope struct {
	parent *scope
	items  []*FromItem
}

func (s *scope) push(f *FromItem) { s.items = append(s.items, f) }

// binder carries catalog and query during analysis.
type binder struct {
	q   *Query
	cat *catalog.Catalog
}

func bindSelectStmt(q *Query, stmt *sql.SelectStmt, outer *scope) (*Block, error) {
	bd := &binder{q: q, cat: q.Catalog}
	b, err := bd.bindBody(stmt.Body, outer)
	if err != nil {
		return nil, err
	}
	if len(stmt.OrderBy) > 0 {
		if err := bd.bindOrderBy(b, stmt.OrderBy, outer); err != nil {
			return nil, err
		}
	}
	return b, nil
}

func (bd *binder) bindBody(body sql.Body, outer *scope) (*Block, error) {
	switch v := body.(type) {
	case *sql.Select:
		return bd.bindSelect(v, outer)
	case *sql.SetOp:
		l, err := bd.bindBody(v.Left, outer)
		if err != nil {
			return nil, err
		}
		r, err := bd.bindBody(v.Right, outer)
		if err != nil {
			return nil, err
		}
		if len(l.OutCols()) != len(r.OutCols()) {
			return nil, fmt.Errorf("qtree: set operation children have different arity (%d vs %d)",
				len(l.OutCols()), len(r.OutCols()))
		}
		b := bd.q.NewBlock()
		var kind SetOpKind
		switch v.Kind {
		case sql.UnionOp:
			kind = SetUnion
		case sql.UnionAllOp:
			kind = SetUnionAll
		case sql.IntersectOp:
			kind = SetIntersect
		case sql.MinusOp:
			kind = SetMinus
		}
		// Flatten chains of the same UNION ALL for convenient factorization.
		b.Set = &SetOp{Kind: kind}
		if l.Set != nil && l.Set.Kind == kind && kind == SetUnionAll &&
			l.Limit == 0 && len(l.OrderBy) == 0 {
			b.Set.Children = append(b.Set.Children, l.Set.Children...)
		} else {
			b.Set.Children = append(b.Set.Children, l)
		}
		b.Set.Children = append(b.Set.Children, r)
		return b, nil
	}
	return nil, fmt.Errorf("qtree: unknown select body %T", body)
}

func (bd *binder) bindSelect(sel *sql.Select, outer *scope) (*Block, error) {
	b := bd.q.NewBlock()
	b.Distinct = sel.Distinct
	sc := &scope{parent: outer}

	for _, te := range sel.From {
		if err := bd.bindTableExpr(b, sc, te, outer); err != nil {
			return nil, err
		}
	}

	// WHERE: split conjuncts; extract rownum limits.
	if sel.Where != nil {
		for _, c := range splitAndAST(sel.Where) {
			if n, ok := rownumLimit(c); ok {
				if b.Limit == 0 || n < b.Limit {
					b.Limit = n
				}
				continue
			}
			e, err := bd.bindExpr(c, sc, false)
			if err != nil {
				return nil, err
			}
			// Desugaring (e.g. BETWEEN) can introduce new top-level ANDs.
			b.Where = append(b.Where, SplitAnd(e)...)
		}
	}

	// GROUP BY.
	if sel.GroupBy != nil {
		for _, ge := range sel.GroupBy.Exprs {
			e, err := bd.bindExpr(ge, sc, false)
			if err != nil {
				return nil, err
			}
			b.GroupBy = append(b.GroupBy, e)
		}
		switch {
		case sel.GroupBy.Rollup:
			// ROLLUP(a, b, c) = GROUPING SETS ((a,b,c), (a,b), (a), ()).
			n := len(b.GroupBy)
			for k := n; k >= 0; k-- {
				set := make([]int, k)
				for i := 0; i < k; i++ {
					set[i] = i
				}
				b.GroupingSets = append(b.GroupingSets, set)
			}
		case sel.GroupBy.Sets != nil:
			for _, astSet := range sel.GroupBy.Sets {
				var set []int
				for _, ge := range astSet {
					e, err := bd.bindExpr(ge, sc, false)
					if err != nil {
						return nil, err
					}
					idx := findExpr(b.GroupBy, e)
					if idx < 0 {
						return nil, fmt.Errorf("qtree: grouping set column not in grouping union")
					}
					set = append(set, idx)
				}
				b.GroupingSets = append(b.GroupingSets, set)
			}
		}
	}

	// Select list (after FROM/GROUP BY so aggregates and stars resolve).
	for _, item := range sel.Items {
		if item.Star {
			if err := bd.expandStar(b, sc, item.Qual); err != nil {
				return nil, err
			}
			continue
		}
		e, err := bd.bindExpr(item.Expr, sc, true)
		if err != nil {
			return nil, err
		}
		alias := item.Alias
		if alias == "" {
			if c, ok := e.(*Col); ok {
				alias = c.Name
			}
		}
		b.Select = append(b.Select, SelectItem{Expr: e, Alias: alias})
	}

	// HAVING.
	if sel.Having != nil {
		for _, c := range splitAndAST(sel.Having) {
			e, err := bd.bindExpr(c, sc, true)
			if err != nil {
				return nil, err
			}
			b.Having = append(b.Having, SplitAnd(e)...)
		}
	}

	if err := validateGrouping(b); err != nil {
		return nil, err
	}
	if err := validateWindows(b); err != nil {
		return nil, err
	}
	return b, nil
}

func (bd *binder) bindTableExpr(b *Block, sc *scope, te sql.TableExpr, outer *scope) error {
	switch v := te.(type) {
	case *sql.TableName:
		tbl := bd.cat.Table(v.Name)
		if tbl == nil {
			return fmt.Errorf("qtree: table %s does not exist", strings.ToUpper(v.Name))
		}
		alias := v.Alias
		if alias == "" {
			alias = tbl.Name
		}
		if findAlias(sc.items, alias) != nil {
			return fmt.Errorf("qtree: duplicate alias %s", alias)
		}
		f := &FromItem{ID: bd.q.NewFromID(), Alias: alias, Table: tbl}
		b.From = append(b.From, f)
		sc.push(f)
		return nil

	case *sql.DerivedTable:
		// Derived tables see only the enclosing query's outer scope, not
		// sibling from items (no LATERAL in the source dialect).
		vb, err := bindSelectStmt(bd.q, v.Select, outer)
		if err != nil {
			return err
		}
		alias := v.Alias
		if alias == "" {
			alias = fmt.Sprintf("V_%d", b.ID)
		}
		if findAlias(sc.items, alias) != nil {
			return fmt.Errorf("qtree: duplicate alias %s", alias)
		}
		f := &FromItem{ID: bd.q.NewFromID(), Alias: alias, View: vb}
		b.From = append(b.From, f)
		sc.push(f)
		return nil

	case *sql.JoinExpr:
		leftStart := len(b.From)
		if err := bd.bindTableExpr(b, sc, v.Left, outer); err != nil {
			return err
		}
		leftEnd := len(b.From)
		if err := bd.bindTableExpr(b, sc, v.Right, outer); err != nil {
			return err
		}
		on, err := bd.bindExpr(v.On, sc, false)
		if err != nil {
			return err
		}
		conds := SplitAnd(on)
		switch v.Kind {
		case sql.InnerJoin:
			b.Where = append(b.Where, conds...)
			return nil
		case sql.RightOuterJoin:
			// A RIGHT JOIN B is normalized to B LEFT JOIN A: the left
			// operand becomes the null-padded side and must be one item.
			if leftEnd-leftStart != 1 {
				return fmt.Errorf("qtree: the preserved side of RIGHT OUTER JOIN must be a single table or view")
			}
			item := b.From[leftStart]
			item.Kind = JoinLeftOuter
			item.Cond = conds
			return nil
		default:
			// LEFT/FULL OUTER JOIN: the right side must be a single item;
			// it carries the join condition and kind.
			if _, isJoin := v.Right.(*sql.JoinExpr); isJoin {
				return fmt.Errorf("qtree: nested join on the right side of an outer join is not supported")
			}
			right := b.From[len(b.From)-1]
			right.Kind = JoinLeftOuter
			if v.Kind == sql.FullOuterJoin {
				right.Kind = JoinFullOuter
			}
			right.Cond = conds
			return nil
		}
	}
	return fmt.Errorf("qtree: unknown table expression %T", te)
}

func findAlias(items []*FromItem, alias string) *FromItem {
	for _, f := range items {
		if strings.EqualFold(f.Alias, alias) {
			return f
		}
	}
	return nil
}

func (bd *binder) expandStar(b *Block, sc *scope, qual string) error {
	var items []*FromItem
	if qual == "" {
		items = sc.items
	} else {
		f := findAlias(sc.items, qual)
		if f == nil {
			return fmt.Errorf("qtree: unknown alias %s in star expansion", qual)
		}
		items = []*FromItem{f}
	}
	for _, f := range items {
		n := f.NumCols()
		if f.IsTable() {
			n = f.Table.NumCols() // exclude rowid from star expansion
		}
		for ord := 0; ord < n; ord++ {
			name := f.ColName(ord)
			b.Select = append(b.Select, SelectItem{
				Expr:  &Col{From: f.ID, Ord: ord, Name: name},
				Alias: name,
			})
		}
	}
	return nil
}

// splitAndAST splits an AST expression on top-level ANDs.
func splitAndAST(e sql.Expr) []sql.Expr {
	if b, ok := e.(*sql.BinExpr); ok && b.Op == "AND" {
		return append(splitAndAST(b.L), splitAndAST(b.R)...)
	}
	return []sql.Expr{e}
}

// SplitAnd splits a bound expression on top-level ANDs into conjuncts.
func SplitAnd(e Expr) []Expr {
	if b, ok := e.(*Bin); ok && b.Op == OpAnd {
		return append(SplitAnd(b.L), SplitAnd(b.R)...)
	}
	return []Expr{e}
}

// AndAll combines conjuncts into one expression (TRUE for none).
func AndAll(es []Expr) Expr {
	if len(es) == 0 {
		return &Const{Val: datum.NewBool(true)}
	}
	out := es[0]
	for _, e := range es[1:] {
		out = &Bin{Op: OpAnd, L: out, R: e}
	}
	return out
}

// rownumLimit recognizes "ROWNUM < n" / "ROWNUM <= n" (and mirrored forms)
// and returns the row limit.
func rownumLimit(e sql.Expr) (int64, bool) {
	b, ok := e.(*sql.BinExpr)
	if !ok {
		return 0, false
	}
	l, r, op := b.L, b.R, b.Op
	if _, ok := r.(*sql.Rownum); ok {
		l, r = r, l
		switch op {
		case "<":
			op = ">"
		case "<=":
			op = ">="
		case ">":
			op = "<"
		case ">=":
			op = "<="
		}
	}
	if _, ok := l.(*sql.Rownum); !ok {
		return 0, false
	}
	num, ok := r.(*sql.NumLit)
	if !ok || num.IsFloat {
		return 0, false
	}
	n, err := strconv.ParseInt(num.Text, 10, 64)
	if err != nil {
		return 0, false
	}
	switch op {
	case "<":
		if n <= 0 {
			return 0, false
		}
		return n - 1, true
	case "<=":
		return n, true
	}
	return 0, false
}

// findExpr returns the index of e in list by structural column equality, or
// -1. Only simple column expressions participate (grouping sets).
func findExpr(list []Expr, e Expr) int {
	ec, ok := e.(*Col)
	if !ok {
		return -1
	}
	for i, x := range list {
		if xc, ok := x.(*Col); ok && xc.From == ec.From && xc.Ord == ec.Ord {
			return i
		}
	}
	return -1
}

var aggOps = map[string]AggOp{
	"COUNT": AggCount, "SUM": AggSum, "AVG": AggAvg, "MIN": AggMin, "MAX": AggMax,
}

// bindExpr converts an AST expression. allowAgg permits aggregate
// references (select list, HAVING, ORDER BY).
func (bd *binder) bindExpr(e sql.Expr, sc *scope, allowAgg bool) (Expr, error) {
	switch v := e.(type) {
	case *sql.NumLit:
		if v.IsFloat {
			f, err := strconv.ParseFloat(v.Text, 64)
			if err != nil {
				return nil, fmt.Errorf("qtree: bad numeric literal %q", v.Text)
			}
			return &Const{Val: datum.NewFloat(f)}, nil
		}
		n, err := strconv.ParseInt(v.Text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("qtree: bad integer literal %q", v.Text)
		}
		return &Const{Val: datum.NewInt(n)}, nil

	case *sql.StrLit:
		return &Const{Val: datum.NewString(v.Val)}, nil
	case *sql.NullLit:
		return &Const{Val: datum.Null}, nil
	case *sql.BoolLit:
		return &Const{Val: datum.NewBool(v.Val)}, nil

	case *sql.ColRef:
		return bd.resolveCol(v, sc)

	case *sql.Rownum:
		return nil, fmt.Errorf("qtree: ROWNUM is only supported as a top-level 'ROWNUM < n' filter")

	case *sql.Param:
		return bd.q.bindParam(v), nil

	case *sql.BinExpr:
		op, ok := binOpFromAST(v.Op)
		if !ok {
			return nil, fmt.Errorf("qtree: unknown operator %q", v.Op)
		}
		l, err := bd.bindExpr(v.L, sc, allowAgg)
		if err != nil {
			return nil, err
		}
		r, err := bd.bindExpr(v.R, sc, allowAgg)
		if err != nil {
			return nil, err
		}
		if op == OpConcat {
			if err := checkStringOperand("||", l, sc); err != nil {
				return nil, err
			}
			if err := checkStringOperand("||", r, sc); err != nil {
				return nil, err
			}
		}
		return &Bin{Op: op, L: l, R: r}, nil

	case *sql.UnaryExpr:
		x, err := bd.bindExpr(v.E, sc, allowAgg)
		if err != nil {
			return nil, err
		}
		return &Bin{Op: OpSub, L: &Const{Val: datum.NewInt(0)}, R: x}, nil

	case *sql.NotExpr:
		inner, err := bd.bindExpr(v.E, sc, allowAgg)
		if err != nil {
			return nil, err
		}
		// Fold NOT over subquery predicates.
		if s, ok := inner.(*Subq); ok {
			switch s.Kind {
			case SubqExists:
				s.Kind = SubqNotExists
				return s, nil
			case SubqNotExists:
				s.Kind = SubqExists
				return s, nil
			case SubqIn:
				s.Kind = SubqNotIn
				return s, nil
			case SubqNotIn:
				s.Kind = SubqIn
				return s, nil
			}
		}
		return &Not{E: inner}, nil

	case *sql.IsNull:
		x, err := bd.bindExpr(v.E, sc, allowAgg)
		if err != nil {
			return nil, err
		}
		return &IsNull{E: x, Neg: v.Not}, nil

	case *sql.Between:
		x, err := bd.bindExpr(v.E, sc, allowAgg)
		if err != nil {
			return nil, err
		}
		lo, err := bd.bindExpr(v.Lo, sc, allowAgg)
		if err != nil {
			return nil, err
		}
		hi, err := bd.bindExpr(v.Hi, sc, allowAgg)
		if err != nil {
			return nil, err
		}
		rng := &Bin{Op: OpAnd,
			L: &Bin{Op: OpGe, L: x, R: lo},
			R: &Bin{Op: OpLe, L: x.Clone(&Remap{IDs: map[FromID]FromID{}, dst: bd.q}), R: hi},
		}
		if v.Not {
			return &Not{E: rng}, nil
		}
		return rng, nil

	case *sql.Like:
		x, err := bd.bindExpr(v.E, sc, allowAgg)
		if err != nil {
			return nil, err
		}
		pat, err := bd.bindExpr(v.Pattern, sc, allowAgg)
		if err != nil {
			return nil, err
		}
		if err := checkStringOperand("LIKE", x, sc); err != nil {
			return nil, err
		}
		if err := checkStringOperand("LIKE", pat, sc); err != nil {
			return nil, err
		}
		return &Like{E: x, Pattern: pat, Neg: v.Not}, nil

	case *sql.InExpr:
		if v.Subquery != nil {
			var left []Expr
			for _, le := range v.Left {
				x, err := bd.bindExpr(le, sc, allowAgg)
				if err != nil {
					return nil, err
				}
				left = append(left, x)
			}
			sub, err := bindSelectStmt(bd.q, v.Subquery, sc)
			if err != nil {
				return nil, err
			}
			if len(sub.OutCols()) != len(left) {
				return nil, fmt.Errorf("qtree: IN subquery arity mismatch: %d vs %d",
					len(left), len(sub.OutCols()))
			}
			kind := SubqIn
			if v.Not {
				kind = SubqNotIn
			}
			return &Subq{Kind: kind, Op: OpEq, Left: left, Block: sub}, nil
		}
		x, err := bd.bindExpr(v.Left[0], sc, allowAgg)
		if err != nil {
			return nil, err
		}
		var vals []Expr
		for _, ve := range v.List {
			bv, err := bd.bindExpr(ve, sc, allowAgg)
			if err != nil {
				return nil, err
			}
			vals = append(vals, bv)
		}
		return &InList{E: x, Vals: vals, Neg: v.Not}, nil

	case *sql.Exists:
		sub, err := bindSelectStmt(bd.q, v.Subquery, sc)
		if err != nil {
			return nil, err
		}
		kind := SubqExists
		if v.Not {
			kind = SubqNotExists
		}
		return &Subq{Kind: kind, Block: sub}, nil

	case *sql.Quant:
		var left []Expr
		for _, le := range v.Left {
			x, err := bd.bindExpr(le, sc, allowAgg)
			if err != nil {
				return nil, err
			}
			left = append(left, x)
		}
		sub, err := bindSelectStmt(bd.q, v.Subquery, sc)
		if err != nil {
			return nil, err
		}
		if len(sub.OutCols()) != len(left) {
			return nil, fmt.Errorf("qtree: quantified subquery arity mismatch")
		}
		op, ok := binOpFromAST(v.Op)
		if !ok || !op.IsComparison() {
			return nil, fmt.Errorf("qtree: bad quantified comparison %q", v.Op)
		}
		switch {
		case !v.All && op == OpEq:
			return &Subq{Kind: SubqIn, Op: OpEq, Left: left, Block: sub}, nil
		case v.All && op == OpNe:
			return &Subq{Kind: SubqNotIn, Op: OpEq, Left: left, Block: sub}, nil
		case !v.All:
			return &Subq{Kind: SubqAnyCmp, Op: op, Left: left, Block: sub}, nil
		default:
			return &Subq{Kind: SubqAllCmp, Op: op, Left: left, Block: sub}, nil
		}

	case *sql.ScalarSubquery:
		sub, err := bindSelectStmt(bd.q, v.Subquery, sc)
		if err != nil {
			return nil, err
		}
		if len(sub.OutCols()) != 1 {
			return nil, fmt.Errorf("qtree: scalar subquery must return one column")
		}
		return &Subq{Kind: SubqScalar, Block: sub}, nil

	case *sql.FuncCall:
		if v.Over != nil {
			return bd.bindWindow(v, sc)
		}
		if aggOp, ok := aggOps[v.Name]; ok {
			if !allowAgg {
				return nil, fmt.Errorf("qtree: aggregate %s not allowed here", v.Name)
			}
			if v.Star {
				if aggOp != AggCount {
					return nil, fmt.Errorf("qtree: %s(*) is not valid", v.Name)
				}
				return &Agg{Op: AggCount, Star: true}, nil
			}
			if len(v.Args) != 1 {
				return nil, fmt.Errorf("qtree: aggregate %s takes one argument", v.Name)
			}
			arg, err := bd.bindExpr(v.Args[0], sc, false)
			if err != nil {
				return nil, err
			}
			if ContainsAgg(arg) {
				return nil, fmt.Errorf("qtree: nested aggregates are not allowed")
			}
			return &Agg{Op: aggOp, Arg: arg, Distinct: v.Distinct}, nil
		}
		def := bd.cat.Func(v.Name)
		if def == nil {
			return nil, fmt.Errorf("qtree: unknown function %s", v.Name)
		}
		if len(v.Args) < def.MinArgs || len(v.Args) > def.MaxArgs {
			return nil, fmt.Errorf("qtree: %s takes %d..%d arguments, got %d",
				def.Name, def.MinArgs, def.MaxArgs, len(v.Args))
		}
		var args []Expr
		for _, ae := range v.Args {
			x, err := bd.bindExpr(ae, sc, allowAgg)
			if err != nil {
				return nil, err
			}
			args = append(args, x)
		}
		return &Func{Def: def, Args: args}, nil

	case *sql.CaseExpr:
		c := &Case{}
		for _, w := range v.Whens {
			cond, err := bd.bindExpr(w.Cond, sc, allowAgg)
			if err != nil {
				return nil, err
			}
			res, err := bd.bindExpr(w.Result, sc, allowAgg)
			if err != nil {
				return nil, err
			}
			c.Whens = append(c.Whens, CaseWhen{Cond: cond, Result: res})
		}
		if v.Else != nil {
			x, err := bd.bindExpr(v.Else, sc, allowAgg)
			if err != nil {
				return nil, err
			}
			c.Else = x
		}
		return c, nil
	}
	return nil, fmt.Errorf("qtree: unsupported expression %T", e)
}

var winOps = map[string]WinOp{
	"COUNT": WinCount, "SUM": WinSum, "AVG": WinAvg,
	"MIN": WinMin, "MAX": WinMax, "ROW_NUMBER": WinRowNumber,
}

// bindWindow binds a window (analytic) function reference.
func (bd *binder) bindWindow(v *sql.FuncCall, sc *scope) (Expr, error) {
	op, ok := winOps[v.Name]
	if !ok {
		return nil, fmt.Errorf("qtree: %s is not a window function", v.Name)
	}
	if v.Distinct {
		return nil, fmt.Errorf("qtree: DISTINCT window aggregates are not supported")
	}
	w := &WinFunc{Op: op, Running: v.Over.Running}
	switch {
	case op == WinRowNumber:
		if len(v.Args) != 0 || v.Star {
			return nil, fmt.Errorf("qtree: ROW_NUMBER takes no arguments")
		}
		if len(v.Over.OrderBy) == 0 {
			return nil, fmt.Errorf("qtree: ROW_NUMBER requires ORDER BY in its window")
		}
	case v.Star:
		if op != WinCount {
			return nil, fmt.Errorf("qtree: %s(*) is not valid", v.Name)
		}
		w.Star = true
	default:
		if len(v.Args) != 1 {
			return nil, fmt.Errorf("qtree: window %s takes one argument", v.Name)
		}
		arg, err := bd.bindExpr(v.Args[0], sc, false)
		if err != nil {
			return nil, err
		}
		w.Arg = arg
	}
	for _, pe := range v.Over.PartitionBy {
		e, err := bd.bindExpr(pe, sc, false)
		if err != nil {
			return nil, err
		}
		w.PartitionBy = append(w.PartitionBy, e)
	}
	for _, oi := range v.Over.OrderBy {
		e, err := bd.bindExpr(oi.Expr, sc, false)
		if err != nil {
			return nil, err
		}
		w.OrderBy = append(w.OrderBy, OrderItem{Expr: e, Desc: oi.Desc})
	}
	return w, nil
}

// ContainsWindow reports whether e contains a window function reference.
func ContainsWindow(e Expr) bool {
	found := false
	WalkExpr(e, func(x Expr) bool {
		switch x.(type) {
		case *WinFunc:
			found = true
			return false
		case *Subq:
			return false
		}
		return !found
	})
	return found
}

// HasWindowFuncs reports whether any select item of the block contains a
// window function.
func (b *Block) HasWindowFuncs() bool {
	for _, it := range b.Select {
		if ContainsWindow(it.Expr) {
			return true
		}
	}
	return false
}

// validateWindows enforces the supported placement of window functions:
// select list only, not combined with grouping, not nested.
func validateWindows(b *Block) error {
	check := func(e Expr, where string) error {
		if ContainsWindow(e) {
			return fmt.Errorf("qtree: window functions are only allowed in the select list (%s)", where)
		}
		return nil
	}
	for _, e := range b.Where {
		if err := check(e, "where"); err != nil {
			return err
		}
	}
	for _, e := range b.GroupBy {
		if err := check(e, "group by"); err != nil {
			return err
		}
	}
	for _, e := range b.Having {
		if err := check(e, "having"); err != nil {
			return err
		}
	}
	if b.HasWindowFuncs() {
		if b.HasGroupBy() {
			return fmt.Errorf("qtree: window functions combined with GROUP BY are not supported")
		}
		// No window inside another window or inside an aggregate.
		bad := false
		for _, it := range b.Select {
			WalkExpr(it.Expr, func(x Expr) bool {
				if w, ok := x.(*WinFunc); ok {
					if w.Arg != nil && ContainsWindow(w.Arg) {
						bad = true
					}
					return false
				}
				return true
			})
		}
		if bad {
			return fmt.Errorf("qtree: nested window functions are not supported")
		}
	}
	return nil
}

func binOpFromAST(op string) (BinOp, bool) {
	switch op {
	case "+":
		return OpAdd, true
	case "-":
		return OpSub, true
	case "*":
		return OpMul, true
	case "/":
		return OpDiv, true
	case "||":
		return OpConcat, true
	case "=":
		return OpEq, true
	case "<>":
		return OpNe, true
	case "<":
		return OpLt, true
	case "<=":
		return OpLe, true
	case ">":
		return OpGt, true
	case ">=":
		return OpGe, true
	case "AND":
		return OpAnd, true
	case "OR":
		return OpOr, true
	}
	return 0, false
}

// resolveCol resolves a (possibly qualified) column name against the scope
// chain, innermost first.
func (bd *binder) resolveCol(ref *sql.ColRef, sc *scope) (Expr, error) {
	for s := sc; s != nil; s = s.parent {
		var matches []*Col
		for _, f := range s.items {
			if ref.Qual != "" && !strings.EqualFold(f.Alias, ref.Qual) {
				continue
			}
			if ord, ok := itemColOrdinal(f, ref.Name); ok {
				matches = append(matches, &Col{From: f.ID, Ord: ord, Name: strings.ToUpper(ref.Name)})
			}
		}
		if len(matches) > 1 {
			return nil, fmt.Errorf("qtree: ambiguous column %s", colDisplay(ref))
		}
		if len(matches) == 1 {
			return matches[0], nil
		}
	}
	return nil, fmt.Errorf("qtree: unknown column %s", colDisplay(ref))
}

func colDisplay(ref *sql.ColRef) string {
	if ref.Qual != "" {
		return ref.Qual + "." + ref.Name
	}
	return ref.Name
}

// itemColOrdinal finds the output ordinal of name in a from item.
func itemColOrdinal(f *FromItem, name string) (int, bool) {
	if f.Table != nil {
		if strings.EqualFold(name, "ROWID") {
			return f.Table.RowidOrdinal(), true
		}
		if ord := f.Table.Ordinal(name); ord >= 0 {
			return ord, true
		}
		return 0, false
	}
	for i, cn := range f.View.OutCols() {
		if strings.EqualFold(cn, name) {
			return i, true
		}
	}
	return 0, false
}

// staticKind resolves the statically known kind of a bound expression:
// literals, and column references that resolve to base-table columns.
// ok is false when the kind cannot be determined at bind time (views,
// computed expressions, NULL literals).
func staticKind(e Expr, sc *scope) (kind datum.Kind, what string, ok bool) {
	switch v := e.(type) {
	case *Const:
		if v.Val.IsNull() {
			return datum.KNull, "", false
		}
		return v.Val.Kind(), v.Val.String(), true
	case *Col:
		for s := sc; s != nil; s = s.parent {
			for _, f := range s.items {
				if f.ID != v.From || f.Table == nil {
					continue
				}
				if v.Ord >= 0 && v.Ord < len(f.Table.Cols) {
					c := f.Table.Cols[v.Ord]
					return c.Type, f.Table.Name + "." + c.Name, true
				}
				return datum.KNull, "", false // rowid
			}
		}
	}
	return datum.KNull, "", false
}

// checkStringOperand rejects operands of string-only operators (LIKE, ||)
// whose kind is statically known to be non-string, so the mismatch is a
// bind-time query error instead of a runtime one.
func checkStringOperand(op string, e Expr, sc *scope) error {
	k, what, ok := staticKind(e, sc)
	if ok && k != datum.KString {
		return fmt.Errorf("qtree: %s requires string operands: %s has type %s", op, what, k)
	}
	return nil
}

// bindOrderBy binds ORDER BY items against block b: select-list aliases
// first, then the block's from scope.
func (bd *binder) bindOrderBy(b *Block, items []sql.OrderItem, outer *scope) error {
	sc := &scope{parent: outer}
	if b.Set == nil {
		sc.items = b.From
	}
	for _, oi := range items {
		// Alias reference?
		if cr, ok := oi.Expr.(*sql.ColRef); ok && cr.Qual == "" {
			if idx := outColIndex(b, cr.Name); idx >= 0 {
				var e Expr
				if b.Set != nil {
					// Positional reference into the set operation's output.
					e = &Col{From: 0, Ord: idx, Name: strings.ToUpper(cr.Name)}
				} else {
					e = b.Select[idx].Expr.Clone(&Remap{IDs: map[FromID]FromID{}, dst: bd.q})
				}
				b.OrderBy = append(b.OrderBy, OrderItem{Expr: e, Desc: oi.Desc})
				continue
			}
		}
		if b.Set != nil {
			return fmt.Errorf("qtree: ORDER BY on a set operation must name an output column")
		}
		e, err := bd.bindExpr(oi.Expr, sc, true)
		if err != nil {
			return err
		}
		b.OrderBy = append(b.OrderBy, OrderItem{Expr: e, Desc: oi.Desc})
	}
	return nil
}

func outColIndex(b *Block, name string) int {
	for i, cn := range b.OutCols() {
		if strings.EqualFold(cn, name) {
			return i
		}
	}
	return -1
}

// validateGrouping checks that in a grouped block every naked column
// reference in the select list, HAVING and ORDER BY appears in GROUP BY.
func validateGrouping(b *Block) error {
	if !b.HasGroupBy() {
		// Aggregates were already rejected in WHERE during binding.
		return nil
	}
	grouped := func(c *Col) bool {
		for _, g := range b.GroupBy {
			if gc, ok := g.(*Col); ok && gc.From == c.From && gc.Ord == c.Ord {
				return true
			}
		}
		return false
	}
	local := b.LocalFromIDs()
	check := func(e Expr, clause string) error {
		var bad *Col
		WalkExpr(e, func(x Expr) bool {
			if bad != nil {
				return false
			}
			switch v := x.(type) {
			case *Agg:
				return false // columns under aggregates are fine
			case *Subq:
				return false // subqueries validated separately
			case *Col:
				// Only local references must be grouped; correlated outer
				// references are constant per group.
				if local[v.From] && !grouped(v) {
					bad = v
				}
			}
			return true
		})
		if bad != nil {
			return fmt.Errorf("qtree: column %s must appear in GROUP BY (%s clause)", bad.Name, clause)
		}
		return nil
	}
	for _, it := range b.Select {
		if err := check(it.Expr, "select"); err != nil {
			return err
		}
	}
	for _, h := range b.Having {
		if err := check(h, "having"); err != nil {
			return err
		}
	}
	for _, o := range b.OrderBy {
		if err := check(o.Expr, "order by"); err != nil {
			return err
		}
	}
	return nil
}

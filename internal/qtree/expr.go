// Package qtree implements the query tree: the declarative intermediate
// representation on which all transformations operate. As the paper notes
// (§2), query trees differ from algebraic operator trees in that they retain
// all the declarativeness of SQL; a query tree is converted into an operator
// tree only when it undergoes physical optimization.
//
// The package provides the tree types, semantic analysis (binding an AST
// against a catalog), deep copying with from-item remapping (§3.1's
// "capability for deep copying query blocks and their constituents"), and
// canonical SQL rendering used both for display and as the key for cost
// annotation reuse (§3.4.2).
package qtree

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/datum"
)

// FromID uniquely identifies a from item within a Query. Column references
// name (FromID, output ordinal) pairs, so references are stable under
// transformations that reorder or splice from lists.
type FromID int32

// Expr is a scalar or predicate expression in the query tree.
type Expr interface {
	// Clone deep-copies the expression, remapping from-item IDs through r.
	// IDs absent from r (references to items outside the copied subtree,
	// i.e. correlation) are preserved.
	Clone(r *Remap) Expr
	// String renders the expression in SQL-ish syntax using raw from IDs;
	// use Block rendering for resolvable SQL.
	String() string
}

// Remap translates old from-item IDs to new ones during deep copy and
// carries the destination query so that cloned subquery blocks allocate
// their identities from it.
type Remap struct {
	IDs map[FromID]FromID
	dst *Query
}

func (r *Remap) lookup(id FromID) FromID {
	if n, ok := r.IDs[id]; ok {
		return n
	}
	return id
}

// Lookup translates an old from-item ID to its clone's ID; IDs outside the
// copied subtree map to themselves.
func (r *Remap) Lookup(id FromID) FromID { return r.lookup(id) }

// NewRemap returns an identity remap targeting query q: cloning with it
// preserves all from-item references while still allocating block
// identities (for subquery blocks) from q.
func NewRemap(q *Query) *Remap { return &Remap{IDs: map[FromID]FromID{}, dst: q} }

// Const is a literal value.
type Const struct{ Val datum.Datum }

// Col references output column Ord of from item From. For a base table,
// Ord is the catalog column ordinal (or the rowid ordinal); for a view,
// Ord indexes the view's select list.
type Col struct {
	From FromID
	Ord  int
	Name string // column name for display
}

// Param is a typed bind-parameter placeholder: the query tree keeps the
// slot, and the executor supplies the value at plan open (late binding), so
// one optimized plan can serve many bind sets. Ord indexes the owning
// query's parameter list (first-appearance order, named parameters
// deduplicated); Name is the user-visible name (":dept") or a generated
// one ("?1") for positional placeholders.
type Param struct {
	Ord  int
	Name string
}

// BinOp enumerates binary operators.
type BinOp uint8

// Binary operators.
const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpDiv
	OpConcat
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
	// OpNullSafeEq is equality where NULL matches NULL; produced by the
	// set-operator-into-join transformation (§2.2.7), whose semantics make
	// nulls match.
	OpNullSafeEq
)

var binOpNames = [...]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpConcat: "||",
	OpEq: "=", OpNe: "<>", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpAnd: "AND", OpOr: "OR", OpNullSafeEq: "<=>",
}

func (o BinOp) String() string { return binOpNames[o] }

// IsComparison reports whether the operator is a comparison.
func (o BinOp) IsComparison() bool { return o >= OpEq && o <= OpGe || o == OpNullSafeEq }

// Commute returns the comparison with sides swapped (a < b ⇒ b > a).
func (o BinOp) Commute() BinOp {
	switch o {
	case OpLt:
		return OpGt
	case OpLe:
		return OpGe
	case OpGt:
		return OpLt
	case OpGe:
		return OpLe
	}
	return o
}

// Bin is a binary operation.
type Bin struct {
	Op   BinOp
	L, R Expr
}

// Not is logical negation.
type Not struct{ E Expr }

// IsNull is "E IS [NOT] NULL".
type IsNull struct {
	E   Expr
	Neg bool
}

// Like is "E [NOT] LIKE pattern" with % and _ wildcards.
type Like struct {
	E, Pattern Expr
	Neg        bool
}

// InList is "E [NOT] IN (v1, v2, ...)".
type InList struct {
	E    Expr
	Vals []Expr
	Neg  bool
}

// Func is a scalar function call.
type Func struct {
	Def  *catalog.FuncDef
	Args []Expr
}

// LNNVL wraps a condition with Oracle's LNNVL semantics: TRUE when the
// condition evaluates to FALSE or UNKNOWN. Produced by disjunction-into-
// UNION-ALL expansion (§2.2.8) to keep branches disjoint.
type LNNVL struct{ E Expr }

// IsTrue forces strict two-valued truth: TRUE if E is TRUE, otherwise
// FALSE. In plain filter contexts it is equivalent to E (filters only
// accept TRUE), but inside a null-aware antijoin condition it marks the
// subquery's own predicates — which are strict under SQL semantics — as
// distinct from the null-aware connecting condition.
type IsTrue struct{ E Expr }

// AggOp enumerates aggregate functions.
type AggOp uint8

// Aggregate functions.
const (
	AggCount AggOp = iota // COUNT(expr) or COUNT(*)
	AggSum
	AggAvg
	AggMin
	AggMax
)

var aggNames = [...]string{
	AggCount: "COUNT", AggSum: "SUM", AggAvg: "AVG", AggMin: "MIN", AggMax: "MAX",
}

func (o AggOp) String() string { return aggNames[o] }

// Agg is an aggregate function reference; it may appear in the select list,
// HAVING, and ORDER BY of a grouped block.
type Agg struct {
	Op       AggOp
	Arg      Expr // nil for COUNT(*)
	Star     bool
	Distinct bool
}

// WinOp enumerates window functions: the aggregate functions applied over
// a window, plus ROW_NUMBER.
type WinOp uint8

// Window functions.
const (
	WinCount WinOp = iota
	WinSum
	WinAvg
	WinMin
	WinMax
	WinRowNumber
)

var winOpNames = [...]string{
	WinCount: "COUNT", WinSum: "SUM", WinAvg: "AVG",
	WinMin: "MIN", WinMax: "MAX", WinRowNumber: "ROW_NUMBER",
}

func (o WinOp) String() string { return winOpNames[o] }

// WinFunc is a window (analytic) function reference, allowed in the select
// list of a block: OP(arg) OVER (PARTITION BY ... ORDER BY ...). Running
// marks the RANGE UNBOUNDED PRECEDING .. CURRENT ROW frame (the paper's Q7
// running average); without it the aggregate spans the whole partition.
type WinFunc struct {
	Op          WinOp
	Arg         Expr // nil for COUNT(*) and ROW_NUMBER
	Star        bool
	PartitionBy []Expr
	OrderBy     []OrderItem
	Running     bool
}

// SubqKind classifies subquery predicates.
type SubqKind uint8

// Subquery predicate kinds.
const (
	SubqExists SubqKind = iota
	SubqNotExists
	SubqIn     // also = ANY
	SubqNotIn  // also <> ALL
	SubqAnyCmp // <op> ANY for non-equality op
	SubqAllCmp // <op> ALL for non-inequality op
	SubqScalar // scalar subquery used as a value
)

var subqNames = [...]string{
	SubqExists: "EXISTS", SubqNotExists: "NOT EXISTS", SubqIn: "IN",
	SubqNotIn: "NOT IN", SubqAnyCmp: "ANY", SubqAllCmp: "ALL", SubqScalar: "SCALAR",
}

func (k SubqKind) String() string { return subqNames[k] }

// Subq is a subquery predicate or scalar subquery. For IN/NOT IN/ANY/ALL,
// Left holds the outer-side expressions compared against the subquery's
// select list; Op is the comparison for ANY/ALL (OpEq for IN).
type Subq struct {
	Kind  SubqKind
	Op    BinOp
	Left  []Expr
	Block *Block
}

// CaseWhen is one arm of a Case.
type CaseWhen struct {
	Cond, Result Expr
}

// Case is a searched CASE expression.
type Case struct {
	Whens []CaseWhen
	Else  Expr // may be nil (NULL)
}

func (e *Const) Clone(r *Remap) Expr { return &Const{Val: e.Val} }
func (e *Param) Clone(r *Remap) Expr { return &Param{Ord: e.Ord, Name: e.Name} }
func (e *Col) Clone(r *Remap) Expr {
	return &Col{From: r.lookup(e.From), Ord: e.Ord, Name: e.Name}
}
func (e *Bin) Clone(r *Remap) Expr { return &Bin{Op: e.Op, L: e.L.Clone(r), R: e.R.Clone(r)} }
func (e *Not) Clone(r *Remap) Expr { return &Not{E: e.E.Clone(r)} }
func (e *IsNull) Clone(r *Remap) Expr {
	return &IsNull{E: e.E.Clone(r), Neg: e.Neg}
}
func (e *Like) Clone(r *Remap) Expr {
	return &Like{E: e.E.Clone(r), Pattern: e.Pattern.Clone(r), Neg: e.Neg}
}
func (e *InList) Clone(r *Remap) Expr {
	return &InList{E: e.E.Clone(r), Vals: cloneExprs(e.Vals, r), Neg: e.Neg}
}
func (e *Func) Clone(r *Remap) Expr   { return &Func{Def: e.Def, Args: cloneExprs(e.Args, r)} }
func (e *LNNVL) Clone(r *Remap) Expr  { return &LNNVL{E: e.E.Clone(r)} }
func (e *IsTrue) Clone(r *Remap) Expr { return &IsTrue{E: e.E.Clone(r)} }
func (e *Agg) Clone(r *Remap) Expr {
	c := &Agg{Op: e.Op, Star: e.Star, Distinct: e.Distinct}
	if e.Arg != nil {
		c.Arg = e.Arg.Clone(r)
	}
	return c
}
func (e *WinFunc) Clone(r *Remap) Expr {
	c := &WinFunc{Op: e.Op, Star: e.Star, Running: e.Running}
	if e.Arg != nil {
		c.Arg = e.Arg.Clone(r)
	}
	c.PartitionBy = cloneExprs(e.PartitionBy, r)
	for _, o := range e.OrderBy {
		c.OrderBy = append(c.OrderBy, OrderItem{Expr: o.Expr.Clone(r), Desc: o.Desc})
	}
	return c
}
func (e *Subq) Clone(r *Remap) Expr {
	return &Subq{Kind: e.Kind, Op: e.Op, Left: cloneExprs(e.Left, r), Block: e.Block.cloneStructure(r)}
}
func (e *Case) Clone(r *Remap) Expr {
	c := &Case{}
	for _, w := range e.Whens {
		c.Whens = append(c.Whens, CaseWhen{Cond: w.Cond.Clone(r), Result: w.Result.Clone(r)})
	}
	if e.Else != nil {
		c.Else = e.Else.Clone(r)
	}
	return c
}

func cloneExprs(es []Expr, r *Remap) []Expr {
	if es == nil {
		return nil
	}
	out := make([]Expr, len(es))
	for i, e := range es {
		out[i] = e.Clone(r)
	}
	return out
}

func (e *Const) String() string { return e.Val.String() }
func (e *Param) String() string { return ":" + e.Name }
func (e *Col) String() string {
	return fmt.Sprintf("q%d.%s", e.From, e.Name)
}
func (e *Bin) String() string {
	return fmt.Sprintf("(%s %s %s)", e.L, e.Op, e.R)
}
func (e *Not) String() string { return fmt.Sprintf("NOT (%s)", e.E) }
func (e *IsNull) String() string {
	if e.Neg {
		return fmt.Sprintf("%s IS NOT NULL", e.E)
	}
	return fmt.Sprintf("%s IS NULL", e.E)
}
func (e *Like) String() string {
	neg := ""
	if e.Neg {
		neg = " NOT"
	}
	return fmt.Sprintf("%s%s LIKE %s", e.E, neg, e.Pattern)
}
func (e *InList) String() string {
	neg := ""
	if e.Neg {
		neg = " NOT"
	}
	s := fmt.Sprintf("%s%s IN (", e.E, neg)
	for i, v := range e.Vals {
		if i > 0 {
			s += ", "
		}
		s += v.String()
	}
	return s + ")"
}
func (e *Func) String() string {
	s := e.Def.Name + "("
	for i, a := range e.Args {
		if i > 0 {
			s += ", "
		}
		s += a.String()
	}
	return s + ")"
}
func (e *LNNVL) String() string  { return fmt.Sprintf("LNNVL(%s)", e.E) }
func (e *IsTrue) String() string { return fmt.Sprintf("(%s) IS TRUE", e.E) }
func (e *Agg) String() string {
	if e.Star {
		return "COUNT(*)"
	}
	d := ""
	if e.Distinct {
		d = "DISTINCT "
	}
	return fmt.Sprintf("%s(%s%s)", e.Op, d, e.Arg)
}
func (e *WinFunc) String() string {
	arg := "*"
	if e.Arg != nil {
		arg = e.Arg.String()
	}
	if e.Op == WinRowNumber {
		arg = ""
	}
	s := fmt.Sprintf("%s(%s) OVER (", e.Op, arg)
	for i, p := range e.PartitionBy {
		if i == 0 {
			s += "PARTITION BY "
		} else {
			s += ", "
		}
		s += p.String()
	}
	for i, o := range e.OrderBy {
		if i == 0 {
			if len(e.PartitionBy) > 0 {
				s += " "
			}
			s += "ORDER BY "
		} else {
			s += ", "
		}
		s += o.Expr.String()
		if o.Desc {
			s += " DESC"
		}
	}
	return s + ")"
}
func (e *Subq) String() string {
	switch e.Kind {
	case SubqExists, SubqNotExists:
		return fmt.Sprintf("%s (subquery b%d)", e.Kind, e.Block.ID)
	case SubqScalar:
		return fmt.Sprintf("(subquery b%d)", e.Block.ID)
	default:
		return fmt.Sprintf("%v %s (subquery b%d)", e.Left, e.Kind, e.Block.ID)
	}
}
func (e *Case) String() string {
	s := "CASE"
	for _, w := range e.Whens {
		s += fmt.Sprintf(" WHEN %s THEN %s", w.Cond, w.Result)
	}
	if e.Else != nil {
		s += fmt.Sprintf(" ELSE %s", e.Else)
	}
	return s + " END"
}

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
	"slices"

	"repro/internal/catalog"
	"repro/internal/datum"
)

// FromID uniquely identifies a from item within a Query. Column references
// name (FromID, output ordinal) pairs, so references are stable under
// transformations that reorder or splice from lists.
type FromID int32

// Expr is a scalar or predicate expression in the query tree. Its node
// types are listed here; subExprs names each one's children, and every
// walk, rewrite and copy of an expression goes through it.
type Expr interface {
	// String renders the expression in SQL-ish syntax using raw from IDs;
	// use Block rendering for resolvable SQL. It is for display: compare
	// expressions with Equal.
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

// subExprs is the one definition of an expression node's children: it
// calls f on a pointer to each sub-expression slot of e, in order. A
// subquery's children are its left operands; its block is not an
// expression and is not among them. An absent optional operand (an
// aggregate's or a window's nil argument, a CASE without ELSE) is passed
// as a nil slot. With fresh set, a node that has children is first copied,
// slices included, and f sees the copy's slots, so it may overwrite them;
// a leaf is never copied. subExprs returns the node whose slots f saw.
func subExprs(e Expr, fresh bool, f func(*Expr)) Expr {
	switch v := e.(type) {
	case *Bin:
		if fresh {
			c := *v
			v = &c
		}
		f(&v.L)
		f(&v.R)
		return v
	case *Not:
		if fresh {
			c := *v
			v = &c
		}
		f(&v.E)
		return v
	case *IsNull:
		if fresh {
			c := *v
			v = &c
		}
		f(&v.E)
		return v
	case *Like:
		if fresh {
			c := *v
			v = &c
		}
		f(&v.E)
		f(&v.Pattern)
		return v
	case *InList:
		if fresh {
			c := *v
			c.Vals = slices.Clone(v.Vals)
			v = &c
		}
		f(&v.E)
		for i := range v.Vals {
			f(&v.Vals[i])
		}
		return v
	case *Func:
		if fresh {
			c := *v
			c.Args = slices.Clone(v.Args)
			v = &c
		}
		for i := range v.Args {
			f(&v.Args[i])
		}
		return v
	case *LNNVL:
		if fresh {
			c := *v
			v = &c
		}
		f(&v.E)
		return v
	case *IsTrue:
		if fresh {
			c := *v
			v = &c
		}
		f(&v.E)
		return v
	case *Agg:
		if fresh {
			c := *v
			v = &c
		}
		f(&v.Arg)
		return v
	case *WinFunc:
		if fresh {
			c := *v
			c.PartitionBy = slices.Clone(v.PartitionBy)
			c.OrderBy = slices.Clone(v.OrderBy)
			v = &c
		}
		f(&v.Arg)
		for i := range v.PartitionBy {
			f(&v.PartitionBy[i])
		}
		for i := range v.OrderBy {
			f(&v.OrderBy[i].Expr)
		}
		return v
	case *Subq:
		if fresh {
			c := *v
			c.Left = slices.Clone(v.Left)
			v = &c
		}
		for i := range v.Left {
			f(&v.Left[i])
		}
		return v
	case *Case:
		if fresh {
			c := *v
			c.Whens = slices.Clone(v.Whens)
			v = &c
		}
		for i := range v.Whens {
			f(&v.Whens[i].Cond)
			f(&v.Whens[i].Result)
		}
		f(&v.Else)
		return v
	}
	return e // *Const, *Col, *Param: no children
}

func (e *Const) String() string   { return e.Val.String() }
func (e *Param) String() string   { return rawString(e) }
func (e *Col) String() string     { return rawString(e) }
func (e *Bin) String() string     { return rawString(e) }
func (e *Not) String() string     { return rawString(e) }
func (e *IsNull) String() string  { return rawString(e) }
func (e *Like) String() string    { return rawString(e) }
func (e *InList) String() string  { return rawString(e) }
func (e *Func) String() string    { return rawString(e) }
func (e *LNNVL) String() string   { return rawString(e) }
func (e *IsTrue) String() string  { return rawString(e) }
func (e *Agg) String() string     { return rawString(e) }
func (e *WinFunc) String() string { return rawString(e) }
func (e *Subq) String() string    { return rawString(e) }
func (e *Case) String() string    { return rawString(e) }

// Equal reports whether a and b are the same expression: the structural
// identity the transformations and the planner dedupe and match by.
// Columns compare by (From, Ord), never by display name, so a reference
// spelt in another case is the same column; constants compare by
// datum.SameValue, parameters by slot, and subqueries by kind, operator,
// left side and block identity. Every other node compares by operator,
// flags and children.
func Equal(a, b Expr) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	switch x := a.(type) {
	case *Const:
		y, ok := b.(*Const)
		return ok && datum.SameValue(x.Val, y.Val)
	case *Param:
		y, ok := b.(*Param)
		return ok && x.Ord == y.Ord
	case *Col:
		y, ok := b.(*Col)
		return ok && x.From == y.From && x.Ord == y.Ord
	case *Bin:
		y, ok := b.(*Bin)
		return ok && x.Op == y.Op && Equal(x.L, y.L) && Equal(x.R, y.R)
	case *Not:
		y, ok := b.(*Not)
		return ok && Equal(x.E, y.E)
	case *IsNull:
		y, ok := b.(*IsNull)
		return ok && x.Neg == y.Neg && Equal(x.E, y.E)
	case *Like:
		y, ok := b.(*Like)
		return ok && x.Neg == y.Neg && Equal(x.E, y.E) && Equal(x.Pattern, y.Pattern)
	case *InList:
		y, ok := b.(*InList)
		return ok && x.Neg == y.Neg && Equal(x.E, y.E) && equalList(x.Vals, y.Vals)
	case *Func:
		y, ok := b.(*Func)
		return ok && x.Def.Name == y.Def.Name && equalList(x.Args, y.Args)
	case *LNNVL:
		y, ok := b.(*LNNVL)
		return ok && Equal(x.E, y.E)
	case *IsTrue:
		y, ok := b.(*IsTrue)
		return ok && Equal(x.E, y.E)
	case *Agg:
		y, ok := b.(*Agg)
		return ok && x.Op == y.Op && x.Star == y.Star && x.Distinct == y.Distinct && Equal(x.Arg, y.Arg)
	case *WinFunc:
		y, ok := b.(*WinFunc)
		if !ok || x.Op != y.Op || x.Star != y.Star || x.Running != y.Running ||
			!Equal(x.Arg, y.Arg) || !equalList(x.PartitionBy, y.PartitionBy) || len(x.OrderBy) != len(y.OrderBy) {
			return false
		}
		for i, o := range x.OrderBy {
			if o.Desc != y.OrderBy[i].Desc || !Equal(o.Expr, y.OrderBy[i].Expr) {
				return false
			}
		}
		return true
	case *Subq:
		y, ok := b.(*Subq)
		return ok && x.Kind == y.Kind && x.Op == y.Op && x.Block.ID == y.Block.ID && equalList(x.Left, y.Left)
	case *Case:
		y, ok := b.(*Case)
		if !ok || len(x.Whens) != len(y.Whens) || !Equal(x.Else, y.Else) {
			return false
		}
		for i, w := range x.Whens {
			if !Equal(w.Cond, y.Whens[i].Cond) || !Equal(w.Result, y.Whens[i].Result) {
				return false
			}
		}
		return true
	}
	return false
}

func equalList(a, b []Expr) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// IndexOf returns the index of the first expression in list that is Equal
// to e, or -1. The list may hold any one expression type ([]*Agg, say).
func IndexOf[E Expr](list []E, e Expr) int {
	for i, x := range list {
		if Equal(x, e) {
			return i
		}
	}
	return -1
}

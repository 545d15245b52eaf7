// Package optimizer implements the physical optimizer: cardinality and
// selectivity estimation from catalog statistics, access path selection
// (full scan, index equality and range scans), System-R style dynamic
// programming join enumeration with partial-order constraints for
// semijoin/antijoin/outer-join/lateral views, join method selection
// (nested loops and hash, each with semi/anti/outer variants), and
// costing of aggregation, sorting, distinct, set operations and correlated
// subquery evaluation under tuple iteration semantics with caching.
//
// This is the "cost estimation technique (physical optimizer)" component of
// the paper's cost-based transformation framework (§3.1): the CBQT driver
// deep-copies the query tree, applies a transformation state, and invokes
// this optimizer to obtain the state's cost.
package optimizer

import (
	"repro/internal/catalog"
	"repro/internal/qtree"
)

// ColID identifies one column in a plan node's output: the from item that
// produced it and the output ordinal within that item.
type ColID struct {
	From qtree.FromID
	Ord  int
}

// Cost is the optimizer's estimate for a (sub)plan: total cost in abstract
// units and output row count.
type Cost struct {
	Total float64
	Rows  float64
}

// PlanNode is one operator of a physical plan.
type PlanNode interface {
	// Columns is the node's output schema.
	Columns() []ColID
	// Cost returns the node's cumulative cost estimate.
	Cost() Cost
	// Children returns input operators (empty for leaves).
	Children() []PlanNode
	// Label is a short operator name for EXPLAIN output.
	Label() string
}

// base carries the fields shared by all plan nodes.
type base struct {
	cols []ColID
	cost Cost
}

func (b *base) Columns() []ColID { return b.cols }
func (b *base) Cost() Cost       { return b.cost }

// SeqScan reads all rows of a base table, applying Filter.
type SeqScan struct {
	base
	Table  *catalog.Table
	From   qtree.FromID
	Filter []qtree.Expr
}

func (n *SeqScan) Children() []PlanNode { return nil }
func (n *SeqScan) Label() string        { return "SeqScan " + n.Table.Name }

// IndexScan probes an index of a base table. EqKeys are expressions for the
// leading index columns (they may reference columns of earlier join inputs
// or correlation parameters); Lo/Hi optionally bound the first index column
// for a range scan. Filter applies to fetched rows.
type IndexScan struct {
	base
	Table *catalog.Table
	From  qtree.FromID
	Index *catalog.Index

	EqKeys []qtree.Expr // equality probes on leading index columns
	Lo, Hi qtree.Expr   // range bounds on the column after the EqKeys prefix
	LoInc  bool
	HiInc  bool

	Filter []qtree.Expr
}

func (n *IndexScan) Children() []PlanNode { return nil }
func (n *IndexScan) Label() string {
	return "IndexScan " + n.Table.Name + "." + n.Index.Name
}

// Filter applies predicates to child rows. Predicates may contain subquery
// expressions, evaluated via the plan's Subplans map under tuple iteration
// semantics with result caching (§2.1.1).
type Filter struct {
	base
	Child PlanNode
	Preds []qtree.Expr
}

func (n *Filter) Children() []PlanNode { return []PlanNode{n.Child} }
func (n *Filter) Label() string        { return "Filter" }

// JoinMethod enumerates physical join algorithms.
type JoinMethod uint8

// Join methods.
const (
	MethodNL JoinMethod = iota
	MethodHash
)

var joinMethodNames = [...]string{MethodNL: "NestedLoops", MethodHash: "Hash"}

func (m JoinMethod) String() string { return joinMethodNames[m] }

// Join combines two inputs. Kind follows qtree join kinds (inner, semi,
// anti, null-aware anti, left outer). For MethodNL the right child is
// re-evaluated per left row and may be an IndexScan probing left columns or
// a lateral view subplan; for hash, EqL/EqR are the equi-key
// expressions over the left/right columns.
type Join struct {
	base
	Method JoinMethod
	Kind   qtree.JoinKind
	L, R   PlanNode

	EqL, EqR []qtree.Expr // hash keys (len equal)
	// NullSafeEq marks per-key null-safe equality (nulls match), produced
	// by the set-operator-into-join transformation.
	NullSafeEq []bool
	// On holds residual join conditions evaluated against the combined row.
	On []qtree.Expr
	// RLateral marks that the right side references left columns (index NL
	// probe or lateral view / correlated rescan).
	RLateral bool
}

// NullSafe reports whether hash key i uses null-safe equality.
func (n *Join) NullSafe(i int) bool {
	return i < len(n.NullSafeEq) && n.NullSafeEq[i]
}

func (n *Join) Children() []PlanNode { return []PlanNode{n.L, n.R} }
func (n *Join) Label() string        { return n.Method.String() + " " + n.Kind.String() + " Join" }

// AggSpec describes one aggregate computed by an Agg node.
type AggSpec struct {
	Op       qtree.AggOp
	Arg      qtree.Expr // nil for COUNT(*)
	Star     bool
	Distinct bool
}

// Agg groups child rows by GroupBy expressions and computes Aggs. Output
// columns are the grouping expressions followed by the aggregates, exposed
// under the synthetic OutFrom id. With GroupingSets, the aggregation is
// repeated per set with the non-member grouping columns null (ROLLUP /
// GROUPING SETS execution); a trailing grouping-set id column is appended.
type Agg struct {
	base
	Child        PlanNode
	GroupBy      []qtree.Expr
	GroupingSets [][]int
	Aggs         []AggSpec
	OutFrom      qtree.FromID
}

func (n *Agg) Children() []PlanNode { return []PlanNode{n.Child} }
func (n *Agg) Label() string {
	if len(n.GroupBy) == 0 {
		return "Aggregate (scalar)"
	}
	if n.GroupingSets != nil {
		return "Aggregate (grouping sets)"
	}
	return "Aggregate (hash)"
}

// Window computes analytic functions: the child's rows are partitioned by
// each function's PARTITION BY, optionally ordered within the partition,
// and the function value is attached to every row. Output columns are the
// child's columns followed by one column per function under OutFrom.
type Window struct {
	base
	Child   PlanNode
	Funcs   []*qtree.WinFunc
	OutFrom qtree.FromID
}

func (n *Window) Children() []PlanNode { return []PlanNode{n.Child} }
func (n *Window) Label() string        { return "Window" }

// Project computes the output expressions of a block and renames them to
// Out column identities (the from-item id under which the parent block
// sees this view, or from id 0 for the statement result).
type Project struct {
	base
	Child PlanNode
	Exprs []qtree.Expr
}

func (n *Project) Children() []PlanNode { return []PlanNode{n.Child} }
func (n *Project) Label() string        { return "Project" }

// Distinct removes duplicate rows (grouping equality: nulls match).
type Distinct struct {
	base
	Child PlanNode
}

func (n *Distinct) Children() []PlanNode { return []PlanNode{n.Child} }
func (n *Distinct) Label() string        { return "Distinct (hash)" }

// Sort orders child rows.
type Sort struct {
	base
	Child PlanNode
	Keys  []qtree.Expr
	Desc  []bool
}

func (n *Sort) Children() []PlanNode { return []PlanNode{n.Child} }
func (n *Sort) Label() string        { return "Sort" }

// Limit returns the first N child rows (Oracle ROWNUM semantics).
type Limit struct {
	base
	Child PlanNode
	N     int64
}

func (n *Limit) Children() []PlanNode { return []PlanNode{n.Child} }
func (n *Limit) Label() string        { return "Limit" }

// SetNode evaluates a set operation over children (all with equal arity).
type SetNode struct {
	base
	Kind    qtree.SetOpKind
	Inputs  []PlanNode
	OutFrom qtree.FromID
}

func (n *SetNode) Children() []PlanNode { return n.Inputs }
func (n *SetNode) Label() string        { return n.Kind.String() }

// SubPlan is the compiled form of a subquery appearing inside an
// expression: its plan, the correlation parameters it reads from the outer
// row, and its per-execution cost. The executor caches results keyed by the
// correlation values, matching the optimizer's effective-execution model.
type SubPlan struct {
	Root PlanNode
	// Correlated lists the outer columns the subquery reads.
	Correlated []ColID
	// PerExec is the estimated cost of one execution.
	PerExec float64
	// EffectiveExecs estimates distinct parameter bindings (cache misses).
	EffectiveExecs float64
}

// Plan is a complete physical plan for a query: the root operator plus the
// subplans for every subquery expression left in the tree.
type Plan struct {
	Root     PlanNode
	Subplans map[*qtree.Subq]*SubPlan
	// BlocksOptimized counts query blocks costed while producing this plan,
	// including cache-avoided ones; see Planner counters for the breakdown.
	Cost Cost
}

// Walk visits the plan tree in pre-order.
func Walk(n PlanNode, f func(PlanNode)) {
	if n == nil {
		return
	}
	f(n)
	for _, c := range n.Children() {
		Walk(c, f)
	}
}

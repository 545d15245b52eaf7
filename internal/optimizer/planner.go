package optimizer

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/catalog"
	"repro/internal/datum"
	"repro/internal/qtree"
)

// ErrCutoff is returned when optimization is aborted because the plan cost
// exceeded the cut-off budget (§3.4.1).
var ErrCutoff = errors.New("optimizer: cost exceeded cut-off budget")

// ErrBudget is returned when optimization is aborted because the planner's
// context was canceled or its deadline passed. The CBQT driver treats it as
// "stop searching, keep the best state so far", never as a query failure.
var ErrBudget = errors.New("optimizer: budget exhausted")

// Counters accumulate optimizer work statistics; the CBQT experiments
// (Table 1) read BlocksOptimized and CacheHits.
type Counters struct {
	// BlocksOptimized counts SELECT blocks fully optimized.
	BlocksOptimized int
	// CacheHits counts blocks whose optimization was avoided by reusing a
	// cost annotation (§3.4.2).
	CacheHits int
}

// Planner is the physical optimizer.
type Planner struct {
	Cat *catalog.Catalog
	// Cache, when non-nil, reuses query sub-tree cost annotations across
	// Optimize calls (§3.4.2). Only consulted in CostOnly mode.
	Cache *CostCache
	// CostOnly plans for costing: cached blocks return stub nodes and the
	// resulting plan must not be executed.
	CostOnly bool
	// Cutoff aborts optimization with ErrCutoff once the accumulated cost
	// of the plan under construction exceeds it (§3.4.1). Zero disables.
	Cutoff float64
	// ForceJoin, when non-nil, restricts join method selection to the
	// given method wherever it is applicable — a debugging hint akin to
	// Oracle's USE_NL/USE_HASH.
	ForceJoin *JoinMethod
	// Ctx, when non-nil, is polled at block-planning boundaries; a canceled
	// context aborts optimization with ErrBudget.
	Ctx context.Context
	// Deadline, when non-zero, aborts optimization with ErrBudget once the
	// wall clock passes it. Cheaper than a context for the per-state
	// cost-only planners the CBQT search spawns in bulk.
	Deadline time.Time
	// Binds, when non-nil, are the values of the query's bind parameters,
	// indexed by qtree.Param.Ord. Only the estimator reads them: a
	// comparison of a column with a parameter is estimated for its value.
	// The plan keeps its Param nodes, so it is correct for any binds; nil
	// estimates every parameter as an unknown constant.
	Binds []datum.Datum

	Counters Counters

	// keys renders the cache keys of the query under Optimize: one keyer per
	// call, so the query-wide walk that names correlated references happens
	// at most once per costed state.
	keys *qtree.BlockKeyer
	// nextFrom numbers the from IDs of plan outputs (subplans, set-operation
	// branches, aggregates, windows). Optimize seeds it at the query's next
	// from ID, so plan IDs never collide with the query's and planning
	// writes nothing to the query.
	nextFrom qtree.FromID
}

// New creates a planner over the catalog.
func New(cat *catalog.Catalog) *Planner {
	return &Planner{Cat: cat}
}

// Optimize produces a physical plan for the query.
func (p *Planner) Optimize(q *qtree.Query) (*Plan, error) {
	plan := &Plan{Subplans: map[*qtree.Subq]*SubPlan{}}
	p.keys = q.BlockKeyer()
	p.nextFrom, _ = q.IDCounters()
	node, _, err := p.planBlock(q, q.Root, 0, plan)
	if err != nil {
		return nil, err
	}
	plan.Root = node
	plan.Cost = node.Cost()
	if !p.CostOnly {
		MarkLive(plan)
	}
	return plan, nil
}

// newFromID allocates the from ID of one plan output.
func (p *Planner) newFromID() qtree.FromID {
	id := p.nextFrom
	p.nextFrom++
	return id
}

// planResult carries block-planning outputs needed by enclosing blocks.
type blockInfo struct {
	rows float64
	ndvs []float64 // per output column
}

// checkCutoff aborts when cost exceeds the budget.
func (p *Planner) checkCutoff(c float64) error {
	if p.Cutoff > 0 && c > p.Cutoff {
		return ErrCutoff
	}
	return nil
}

// checkBudget aborts when the planner's context is canceled or its deadline
// has passed.
func (p *Planner) checkBudget() error {
	if p.Ctx != nil {
		select {
		case <-p.Ctx.Done():
			return ErrBudget
		default:
		}
	}
	//lint:allow nodeterm the wall-clock deadline is the budget feature itself; on expiry the search degrades to the best fully-costed state, it never alters which states are enumerated
	if !p.Deadline.IsZero() && time.Now().After(p.Deadline) {
		return ErrBudget
	}
	return nil
}

// planBlock plans one block. outFrom is the from-item ID under which the
// enclosing block references this block's output (0 for the statement
// root). It returns the plan node and the block info used for estimation.
func (p *Planner) planBlock(q *qtree.Query, b *qtree.Block, outFrom qtree.FromID, plan *Plan) (PlanNode, blockInfo, error) {
	if err := p.checkBudget(); err != nil {
		return nil, blockInfo{}, err
	}
	if b.Set != nil {
		return p.planLimited(q, b, outFrom, plan)
	}
	// Cost-annotation reuse (§3.4.2).
	var key string
	if p.Cache != nil && p.CostOnly {
		k, ann, ok := p.Cache.lookup(p.keys, b)
		if ok {
			p.Counters.CacheHits++
			stub := &cachedStub{}
			stub.cols = outputCols(outFrom, len(b.OutCols()))
			stub.cost = ann.cost
			return stub, blockInfo{rows: ann.cost.Rows, ndvs: ann.ndvs}, nil
		}
		key = k
	}
	node, info, err := p.planLimited(q, b, outFrom, plan)
	if err != nil {
		return nil, blockInfo{}, err
	}
	p.Counters.BlocksOptimized++
	if key != "" {
		p.Cache.put(key, costAnnotation{cost: node.Cost(), ndvs: info.ndvs})
	}
	return node, info, nil
}

// planLimited plans b's set operation or SELECT. A limit charges the
// operators above the block's first blocking one only for the rows it reads
// (limitCost), so a cost met while planning inside a limited block may
// exceed the block's final cost: nothing inside it, views and subqueries
// included, checks the cut-off, and the block is checked once, with its
// Limit costed.
func (p *Planner) planLimited(q *qtree.Query, b *qtree.Block, outFrom qtree.FromID, plan *Plan) (PlanNode, blockInfo, error) {
	cut := p.Cutoff
	if b.Limit > 0 {
		p.Cutoff = 0
	}
	var node PlanNode
	var info blockInfo
	var err error
	if b.Set != nil {
		node, info, err = p.planSetOp(q, b, outFrom, plan)
	} else {
		node, info, err = p.planSelectBlock(q, b, outFrom, plan)
	}
	p.Cutoff = cut
	if err == nil && b.Limit > 0 {
		err = p.checkCutoff(node.Cost().Total)
	}
	if err != nil {
		return nil, blockInfo{}, err
	}
	return node, info, nil
}

// cachedStub stands in for a block whose cost was found in the annotation
// cache; it is never executed.
type cachedStub struct{ base }

func (n *cachedStub) Children() []PlanNode { return nil }
func (n *cachedStub) Label() string        { return "CachedCost" }

// IsCostStub reports whether n is a cost-annotation stub standing in for a
// cached block. Stubs appear only in cost-only plans (CostOnly planning
// with a cache hit), never in executable plans; static plan checks treat
// them as opaque leaves.
func IsCostStub(n PlanNode) bool { _, ok := n.(*cachedStub); return ok }

func outputCols(outFrom qtree.FromID, n int) []ColID {
	cols := make([]ColID, n)
	for i := range cols {
		cols[i] = ColID{From: outFrom, Ord: i}
	}
	return cols
}

func (p *Planner) planSetOp(q *qtree.Query, b *qtree.Block, outFrom qtree.FromID, plan *Plan) (PlanNode, blockInfo, error) {
	sn := &SetNode{Kind: b.Set.Kind, OutFrom: outFrom}
	var total, rows float64
	var firstInfo blockInfo
	for i, c := range b.Set.Children {
		childFrom := p.newFromID()
		cn, info, err := p.planBlock(q, c, childFrom, plan)
		if err != nil {
			return nil, blockInfo{}, err
		}
		if i == 0 {
			firstInfo = info
		}
		sn.Inputs = append(sn.Inputs, cn)
		total += cn.Cost().Total
		switch b.Set.Kind {
		case qtree.SetUnion, qtree.SetUnionAll:
			rows += cn.Cost().Rows
		case qtree.SetIntersect:
			if i == 0 || cn.Cost().Rows < rows {
				rows = cn.Cost().Rows
			}
			rows *= 0.5
			if i == 0 {
				rows = cn.Cost().Rows
			}
		case qtree.SetMinus:
			if i == 0 {
				rows = cn.Cost().Rows
			} else {
				rows *= 0.5
			}
		}
		total += cn.Cost().Rows * hashBuildCost // set-op bookkeeping
	}
	if b.Set.Kind != qtree.SetUnionAll {
		total += rows * distinctRowCost
		rows *= 0.9
	}
	sn.cols = outputCols(outFrom, len(b.OutCols()))
	sn.cost = Cost{Total: total, Rows: math.Max(rows, 1)}
	if err := p.checkCutoff(total); err != nil {
		return nil, blockInfo{}, err
	}
	var node PlanNode = sn
	// ORDER BY / LIMIT on the set operation.
	if len(b.OrderBy) > 0 {
		keys := make([]qtree.Expr, len(b.OrderBy))
		desc := make([]bool, len(b.OrderBy))
		for i, o := range b.OrderBy {
			// Set-op order keys are output columns (From 0 convention).
			keys[i] = &qtree.Col{From: outFrom, Ord: ordOfSetKey(o.Expr), Name: "C"}
			desc[i] = o.Desc
		}
		s := &Sort{Child: node, Keys: keys, Desc: desc}
		s.cols = node.Columns()
		s.cost = sortCost(node.Cost())
		node = s
	}
	if b.Limit > 0 {
		l := &Limit{Child: node, N: b.Limit}
		l.cols = node.Columns()
		l.cost = limitCost(node, b.Limit)
		node = l
	}
	info := blockInfo{rows: node.Cost().Rows, ndvs: firstInfo.ndvs}
	return node, info, nil
}

func ordOfSetKey(e qtree.Expr) int {
	if c, ok := e.(*qtree.Col); ok {
		return c.Ord
	}
	return 0
}

func sortCost(in Cost) Cost {
	n := math.Max(in.Rows, 2)
	return Cost{Total: in.Total + sortFactor*n*math.Log2(n), Rows: in.Rows}
}

// limitCost costs a limit of n rows over child. A streaming child stops
// early and is charged for the share of its rows the limit reads. Otherwise
// the child's first operator that is not a Filter or Project (its blocking
// base) must complete, and the filters and projections above it are charged
// only for the share of the base's output they process before the limit
// has its rows.
func limitCost(child PlanNode, n int64) Cost {
	c := child.Cost()
	out := math.Min(float64(n), c.Rows)
	frac := 1.0
	if c.Rows > 0 {
		frac = math.Min(1, float64(n)/c.Rows)
	}
	if isStreaming(child) && c.Rows > 0 {
		return Cost{Total: c.Total * frac, Rows: out}
	}
	total := c.Total
	if frac < 1 {
		base := blockingBase(child).Cost().Total
		total = base + (c.Total-base)*frac
	}
	return Cost{Total: total + out*projectRowCost, Rows: out}
}

// blockingBase is the first node below n, n included, that is neither a
// Filter nor a Project.
func blockingBase(n PlanNode) PlanNode {
	for {
		switch v := n.(type) {
		case *Filter:
			n = v.Child
		case *Project:
			n = v.Child
		default:
			return n
		}
	}
}

// isStreaming reports whether a node produces rows incrementally, so a
// limit on top scales its cost.
func isStreaming(n PlanNode) bool {
	switch v := n.(type) {
	case *Sort, *Agg, *Distinct, *SetNode, *cachedStub:
		return false
	case *Join:
		// Hash joins block on the build phase; treat the probe side as
		// streaming only for NL.
		if v.Method == MethodNL {
			return isStreaming(v.L)
		}
		return false
	case *Filter:
		return isStreaming(v.Child)
	case *Project:
		return isStreaming(v.Child)
	case *Limit:
		return isStreaming(v.Child)
	}
	return true
}

// expensiveEvalCost returns extra per-row cost for expensive function calls
// in a predicate.
func expensiveEvalCost(e qtree.Expr) float64 {
	var c float64
	qtree.WalkExpr(e, func(x qtree.Expr) bool {
		if f, ok := x.(*qtree.Func); ok {
			c += f.Def.CostPerCall
		}
		return true
	})
	return c
}

// predsEvalCost is the per-row evaluation cost of a predicate list
// (excluding subquery execution, handled separately).
func predsEvalCost(preds []qtree.Expr) float64 {
	c := float64(len(preds)) * cpuEvalCost
	for _, p := range preds {
		c += expensiveEvalCost(p)
	}
	return c
}

// planSelectBlock plans a SELECT block (no set operation).
func (p *Planner) planSelectBlock(q *qtree.Query, b *qtree.Block, outFrom qtree.FromID, plan *Plan) (PlanNode, blockInfo, error) {
	local := b.LocalFromIDs()

	// Classify WHERE conjuncts.
	var subqPreds []qtree.Expr // contain subqueries: final filter
	var itemPreds = map[qtree.FromID][]qtree.Expr{}
	var joinPreds []qtree.Expr
	for _, e := range b.Where {
		if qtree.ContainsSubq(e) {
			subqPreds = append(subqPreds, e)
			continue
		}
		// The local items e references: none, exactly only, or several.
		nLocal := 0
		var only qtree.FromID
		qtree.ExprCols(e, func(c *qtree.Col) {
			if local[c.From] && (nLocal == 0 || nLocal == 1 && c.From != only) {
				nLocal++
				only = c.From
			}
		})
		switch nLocal {
		case 1:
			// Single local item, possibly with correlation parameters:
			// pushable to the item's access path (this is what makes TIS
			// with an index on the correlated column fast).
			itemPreds[only] = append(itemPreds[only], e)
		case 0:
			// Pure-parameter predicate: applies once per outer row; treat
			// as a cheap top filter.
			subqPreds = append(subqPreds, e)
		default:
			joinPreds = append(joinPreds, e)
		}
	}

	// Build join inputs (plans views recursively).
	jb, err := p.newJoinBuilder(q, b, itemPreds, joinPreds, plan)
	if err != nil {
		return nil, blockInfo{}, err
	}
	node, err := jb.enumerate()
	if err != nil {
		return nil, blockInfo{}, err
	}

	// Final filter: subquery predicates and parameter predicates.
	if len(subqPreds) > 0 {
		node, err = p.buildSubqFilter(q, node, subqPreds, jb.es, plan)
		if err != nil {
			return nil, blockInfo{}, err
		}
	}
	if err := p.checkCutoff(node.Cost().Total); err != nil {
		return nil, blockInfo{}, err
	}

	selExprs := make([]qtree.Expr, len(b.Select))
	for i, it := range b.Select {
		selExprs[i] = it.Expr
	}
	havingPreds := append([]qtree.Expr(nil), b.Having...)
	orderExprs := make([]qtree.Expr, len(b.OrderBy))
	for i, o := range b.OrderBy {
		orderExprs[i] = o.Expr
	}

	// Aggregation.
	if b.HasGroupBy() {
		node, selExprs, havingPreds, orderExprs, err = p.buildAgg(b, node, jb.es, selExprs, havingPreds, orderExprs)
		if err != nil {
			return nil, blockInfo{}, err
		}
		if len(havingPreds) > 0 {
			// HAVING may itself contain subqueries.
			var plain, subq []qtree.Expr
			for _, h := range havingPreds {
				if qtree.ContainsSubq(h) {
					subq = append(subq, h)
				} else {
					plain = append(plain, h)
				}
			}
			if len(plain) > 0 {
				f := &Filter{Child: node, Preds: plain}
				f.cols = node.Columns()
				sel := 0.25 * float64(len(plain)) // havings on aggregates: rough
				if sel > 1 {
					sel = 1
				}
				f.cost = Cost{
					Total: node.Cost().Total + node.Cost().Rows*predsEvalCost(plain),
					Rows:  math.Max(node.Cost().Rows*sel, 1),
				}
				node = f
			}
			if len(subq) > 0 {
				node, err = p.buildSubqFilter(q, node, subq, jb.es, plan)
				if err != nil {
					return nil, blockInfo{}, err
				}
			}
		}
	}

	// Window functions: computed over the filtered rows, before
	// projection/distinct/order.
	if b.HasWindowFuncs() {
		node, selExprs = p.buildWindow(node, selExprs)
		// Order-by expressions may reference the same window functions via
		// select aliases; rewrite them identically.
		win, ok := node.(*Window)
		if !ok {
			return nil, blockInfo{}, fmt.Errorf("optimizer: window build produced %T, want *Window", node)
		}
		for i, oe := range orderExprs {
			orderExprs[i] = rewriteWindowRefs(oe, win)
		}
	}

	// Compile subplans for subqueries in the select list / order by.
	for _, e := range selExprs {
		if err := p.compileExprSubplans(q, e, jb.es, plan); err != nil {
			return nil, blockInfo{}, err
		}
	}

	// Projection (+ hidden sort keys when ORDER BY needs non-projected
	// expressions and there is no DISTINCT).
	projExprs := append([]qtree.Expr(nil), selExprs...)
	sortOrds := make([]int, len(orderExprs))
	for i, oe := range orderExprs {
		idx := qtree.IndexOf(projExprs[:len(selExprs)], oe)
		if idx < 0 {
			if b.Distinct {
				return nil, blockInfo{}, fmt.Errorf("optimizer: ORDER BY expression not in SELECT DISTINCT list")
			}
			projExprs = append(projExprs, oe)
			idx = len(projExprs) - 1
		}
		sortOrds[i] = idx
	}

	proj := &Project{Child: node, Exprs: projExprs}
	proj.cols = outputCols(outFrom, len(projExprs))
	projCost := node.Cost().Rows * (projectRowCost * float64(len(projExprs)))
	for _, e := range projExprs {
		projCost += node.Cost().Rows * expensiveEvalCost(e)
	}
	proj.cost = Cost{Total: node.Cost().Total + projCost, Rows: node.Cost().Rows}
	node = proj

	info := blockInfo{rows: node.Cost().Rows}
	info.ndvs = p.outputNDVs(b, jb.es, node.Cost().Rows, selExprs)

	if b.Distinct {
		d := &Distinct{Child: node}
		d.cols = node.Columns()
		dRows := distinctRows(info.ndvs, node.Cost().Rows)
		d.cost = Cost{Total: node.Cost().Total + node.Cost().Rows*distinctRowCost, Rows: dRows}
		node = d
		info.rows = dRows
	}

	if len(orderExprs) > 0 {
		keys := make([]qtree.Expr, len(orderExprs))
		desc := make([]bool, len(orderExprs))
		for i := range orderExprs {
			keys[i] = &qtree.Col{From: outFrom, Ord: sortOrds[i], Name: "SORTKEY"}
			desc[i] = b.OrderBy[i].Desc
		}
		s := &Sort{Child: node, Keys: keys, Desc: desc}
		s.cols = node.Columns()
		s.cost = sortCost(node.Cost())
		node = s
	}
	if len(projExprs) > len(b.Select) {
		// Drop hidden sort-key columns from the output.
		trim := &Project{Child: node}
		for i := range b.Select {
			trim.Exprs = append(trim.Exprs, &qtree.Col{From: outFrom, Ord: i, Name: "C"})
		}
		trim.cols = outputCols(outFrom, len(b.Select))
		trim.cost = Cost{Total: node.Cost().Total + node.Cost().Rows*projectRowCost, Rows: node.Cost().Rows}
		node = trim
	}

	if b.Limit > 0 {
		l := &Limit{Child: node, N: b.Limit}
		l.cols = node.Columns()
		l.cost = limitCost(node, b.Limit)
		node = l
		info.rows = node.Cost().Rows
	}

	if err := p.checkCutoff(node.Cost().Total); err != nil {
		return nil, blockInfo{}, err
	}
	return node, info, nil
}

// distinctRows estimates output rows of DISTINCT over the projection.
func distinctRows(ndvs []float64, inRows float64) float64 {
	prod := 1.0
	for _, n := range ndvs {
		prod *= math.Max(n, 1)
		if prod > inRows {
			return math.Max(inRows*0.9, 1)
		}
	}
	return math.Max(math.Min(prod, inRows), 1)
}

// outputNDVs estimates the distinct count of each output expression.
func (p *Planner) outputNDVs(b *qtree.Block, es *estimator, outRows float64, selExprs []qtree.Expr) []float64 {
	ndvs := make([]float64, len(selExprs))
	for i, e := range selExprs {
		n := es.ndv(e)
		ndvs[i] = math.Min(n, math.Max(outRows, 1))
	}
	return ndvs
}

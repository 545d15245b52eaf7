package optimizer

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/catalog"
	"repro/internal/qtree"
)

// dpLimit is the largest from-list size enumerated with exhaustive dynamic
// programming; larger blocks fall back to greedy construction.
const dpLimit = 12

// joinInput is one relation participating in join enumeration.
type joinInput struct {
	idx  int
	item *qtree.FromItem
	// preds are the single-item predicates (possibly with correlation
	// parameters) used by access-path selection; predsCost is their
	// per-row evaluation cost.
	preds     []qtree.Expr
	predsCost float64
	// self is the best standalone access path.
	self PlanNode
	// cond is the effective non-inner join condition: the item's Cond
	// minus single-item conjuncts, which are pushed into the access path
	// (filtering the right side of a semi/anti/outer join first is always
	// equivalent).
	cond []joinPred
	// prereq is the bitmask of inputs that must be joined before this one
	// (non-inner join condition references; lateral view references).
	prereq uint64
	// mustFollow forbids this input from starting the join order
	// (semijoin/antijoin/outer-join right sides and lateral views).
	mustFollow bool
	// lateral marks a lateral (JPPD) view re-executed per outer row;
	// lateralNDV estimates its distinct correlation bindings.
	lateral    bool
	lateralNDV float64
}

// joinPred is one join predicate with everything enumeration needs from
// it, computed once per block so that pricing a join walks no expression.
type joinPred struct {
	e    qtree.Expr
	mask uint64 // the inputs it references
	// eq is e if it is an equality (= or <=>), and lm and rm are the
	// inputs each of its sides references.
	eq     *qtree.Bin
	lm, rm uint64
	sel    float64 // estimated selectivity
	// evalCost is its per-row cost beyond cpuEvalCost (expensive calls).
	evalCost float64
}

// joinBuilder runs join enumeration for one block.
type joinBuilder struct {
	p       *Planner
	es      *estimator
	inputs  []*joinInput
	preds   []joinPred // the WHERE join predicates
	idToIdx map[qtree.FromID]int
	// Scratch reused by every joinTo: what a candidate needs only while
	// it is priced. The winner copies what it keeps.
	conds, residual []*joinPred
	equis           []equiPred
	keys            []int
}

// dpEntry is the best plan found for a subset of inputs.
type dpEntry struct {
	node PlanNode
	mask uint64
}

func (p *Planner) newJoinBuilder(q *qtree.Query, b *qtree.Block, itemPreds map[qtree.FromID][]qtree.Expr, joinPreds []qtree.Expr, plan *Plan) (*joinBuilder, error) {
	jb := &joinBuilder{p: p, es: newEstimator(p.Binds), idToIdx: map[qtree.FromID]int{}}
	for i, f := range b.From {
		jb.idToIdx[f.ID] = i
	}

	// Register relations and plan views.
	viewNodes := make([]PlanNode, len(b.From))
	for i, f := range b.From {
		if f.Table != nil {
			jb.es.addTable(f.ID, f.Table)
			continue
		}
		node, info, err := p.planBlock(q, f.View, f.ID, plan)
		if err != nil {
			return nil, err
		}
		viewNodes[i] = node
		jb.es.addDerived(f.ID, info.rows, info.ndvs)
	}

	for i, f := range b.From {
		in := &joinInput{idx: i, item: f, preds: itemPreds[f.ID]}
		self := uint64(1) << uint(i)
		if f.Kind != qtree.JoinInner {
			in.mustFollow = true
			for _, c := range f.Cond {
				others := jb.refMask(c) &^ self
				in.prereq |= others
				// Pre-filtering the right side is equivalent for semi, anti
				// and left outer joins, but NOT for full outer: rows failing
				// the ON condition must still surface null-padded.
				if others == 0 && f.Kind != qtree.JoinFullOuter && !qtree.ContainsSubq(c) {
					// IS TRUE wrappers are redundant in strict filter
					// context; unwrap so index matching sees the predicate.
					if st, ok := c.(*qtree.IsTrue); ok {
						c = st.E
					}
					in.preds = append(in.preds, c)
				} else {
					// The join evaluates its condition's subqueries itself.
					if err := p.compileExprSubplans(q, c, jb.es, plan); err != nil {
						return nil, err
					}
					in.cond = append(in.cond, jb.newPred(c))
				}
			}
		}
		in.self = jb.standaloneAccess(f, in.preds, viewNodes[i])
		in.predsCost = predsEvalCost(in.preds)
		if f.Lateral && f.View != nil {
			in.lateral = true
			in.mustFollow = true
			f.View.OuterCols(func(c *qtree.Col) {
				if idx, ok := jb.idToIdx[c.From]; ok {
					in.prereq |= 1 << uint(idx)
				}
			})
			in.lateralNDV = jb.lateralNDV(in)
		}
		jb.inputs = append(jb.inputs, in)
	}

	jb.preds = make([]joinPred, len(joinPreds))
	for i, pr := range joinPreds {
		jb.preds[i] = jb.newPred(pr)
	}
	return jb, nil
}

// newPred computes what enumeration needs of predicate e.
func (jb *joinBuilder) newPred(e qtree.Expr) joinPred {
	p := joinPred{e: e, mask: jb.refMask(e), sel: jb.es.selectivity(e), evalCost: expensiveEvalCost(e)}
	if b, ok := e.(*qtree.Bin); ok && (b.Op == qtree.OpEq || b.Op == qtree.OpNullSafeEq) {
		p.eq, p.lm, p.rm = b, jb.refMask(b.L), jb.refMask(b.R)
	}
	return p
}

// refMask is the set of this block's inputs e references.
func (jb *joinBuilder) refMask(e qtree.Expr) uint64 {
	var m uint64
	qtree.ExprCols(e, func(c *qtree.Col) {
		if idx, ok := jb.idToIdx[c.From]; ok {
			m |= 1 << uint(idx)
		}
	})
	return m
}

// enumerate finds the cheapest join order covering all inputs.
func (jb *joinBuilder) enumerate() (PlanNode, error) {
	n := len(jb.inputs)
	if n == 0 {
		return nil, errors.New("optimizer: block has no from items")
	}
	if n == 1 {
		in := jb.inputs[0]
		if in.mustFollow {
			return nil, fmt.Errorf("optimizer: %s join with no left side", in.item.Kind)
		}
		return in.self, nil
	}
	if n <= dpLimit {
		return jb.enumerateDP()
	}
	return jb.enumerateGreedy()
}

func (jb *joinBuilder) enumerateDP() (PlanNode, error) {
	n := len(jb.inputs)
	full := uint64(1)<<uint(n) - 1
	best := make([]dpEntry, full+1) // node == nil: no plan for the subset yet
	for i, in := range jb.inputs {
		if in.mustFollow {
			continue
		}
		best[1<<uint(i)] = dpEntry{node: in.self, mask: 1 << uint(i)}
	}
	cut := jb.p.Cutoff
	cutoffHit := false
	for mask := uint64(1); mask <= full; mask++ {
		e := &best[mask]
		if e.node == nil {
			continue
		}
		if cut > 0 && e.node.Cost().Total > cut {
			cutoffHit = true
			continue // §3.4.1: abandon states over budget
		}
		for j := 0; j < n; j++ {
			bit := uint64(1) << uint(j)
			if mask&bit != 0 {
				continue
			}
			in := jb.inputs[j]
			if in.prereq&^mask != 0 {
				continue
			}
			nm := mask | bit
			if cand := jb.joinTo(e, j, best[nm].node); cand != nil {
				best[nm] = dpEntry{node: cand, mask: nm}
			}
		}
	}
	if best[full].node == nil {
		if cutoffHit {
			return nil, ErrCutoff
		}
		return nil, errors.New("optimizer: no feasible join order (constraint cycle)")
	}
	if cut > 0 && best[full].node.Cost().Total > cut {
		return nil, ErrCutoff
	}
	return best[full].node, nil
}

func (jb *joinBuilder) enumerateGreedy() (PlanNode, error) {
	n := len(jb.inputs)
	var cur dpEntry
	for i, in := range jb.inputs {
		if in.mustFollow {
			continue
		}
		if cur.node == nil || in.self.Cost().Total < cur.node.Cost().Total {
			cur = dpEntry{node: in.self, mask: 1 << uint(i)}
		}
	}
	if cur.node == nil {
		return nil, errors.New("optimizer: no valid leading relation")
	}
	for bits.OnesCount64(cur.mask) < n {
		var next dpEntry
		for j := 0; j < n; j++ {
			bit := uint64(1) << uint(j)
			if cur.mask&bit != 0 || jb.inputs[j].prereq&^cur.mask != 0 {
				continue
			}
			if cand := jb.joinTo(&cur, j, next.node); cand != nil {
				next = dpEntry{node: cand, mask: cur.mask | bit}
			}
		}
		if next.node == nil {
			return nil, errors.New("optimizer: greedy join order stuck (constraint cycle)")
		}
		cur = next
		if err := jb.p.checkCutoff(cur.node.Cost().Total); err != nil {
			return nil, err
		}
	}
	return cur.node, nil
}

// equiPred is one equality join predicate split into sides.
type equiPred struct {
	left, right qtree.Expr // over the left tree / the joining input
	nullSafe    bool
}

// The join candidates of one step, in tie order: on equal cost the
// earlier wins.
const (
	candHash  = iota // hash join, building the joining input
	candProbe        // nested loops probing an index of the joining table
	candNL           // nested loops rescanning (or re-running) the input
	numCands
)

var candMethod = [numCands]JoinMethod{candHash: MethodHash, candProbe: MethodNL, candNL: MethodNL}

// pickJoin returns the cheapest applicable candidate. A join-method hint
// restricts the choice to the candidates of its method when one applies.
func pickJoin(cost [numCands]float64, ok [numCands]bool, force *JoinMethod) int {
	if force != nil {
		forced, applies := ok, false
		for c := range forced {
			forced[c] = ok[c] && candMethod[c] == *force
			applies = applies || forced[c]
		}
		if applies {
			ok = forced
		}
	}
	best := -1
	for c := range ok {
		if ok[c] && (best < 0 || cost[c] < cost[best]) {
			best = c
		}
	}
	return best
}

// joinTo joins input j onto the left entry. It prices every candidate
// method first and builds only the cheapest, and only when it is cheaper
// than incumbent, the best plan so far for the same inputs (nil if none);
// otherwise it returns nil.
func (jb *joinBuilder) joinTo(left *dpEntry, j int, incumbent PlanNode) PlanNode {
	in := jb.inputs[j]
	bit := uint64(1) << uint(j)
	newMask := left.mask | bit

	// Newly applicable join predicates; non-inner join conditions always
	// apply at this join.
	conds := jb.conds[:0]
	for i := range jb.preds {
		if m := jb.preds[i].mask; m&^newMask == 0 && m&bit != 0 {
			conds = append(conds, &jb.preds[i])
		}
	}
	kind := qtree.JoinInner
	if in.item.Kind != qtree.JoinInner {
		kind = in.item.Kind
		for i := range in.cond {
			conds = append(conds, &in.cond[i])
		}
	}

	// Split equi predicates.
	equis, residual := jb.equis[:0], jb.residual[:0]
	for _, c := range conds {
		if ep, ok := c.split(left.mask, bit); ok {
			equis = append(equis, ep)
		} else {
			residual = append(residual, c)
		}
	}
	jb.conds, jb.equis, jb.residual = conds, equis, residual

	l, r := left.node.Cost(), in.self.Cost()
	leftRows, rightRows := l.Rows, r.Rows
	outRows := jb.joinRows(leftRows, rightRows, kind, equis, residual)

	var cost [numCands]float64
	var ok [numCands]bool
	// Hash join (build right, probe left).
	if len(equis) > 0 && !in.lateral {
		ok[candHash] = true
		cost[candHash] = l.Total + r.Total +
			rightRows*hashBuildCost + leftRows*hashProbeCost +
			outRows*evalCost(residual)
	}
	// Nested loops with an index probe on the right (base tables). A full
	// outer join needs the whole right side to report unmatched rows, so
	// the probe path does not apply.
	var probe indexProbe
	if in.item.Table != nil && len(equis) > 0 &&
		kind != qtree.JoinNullAwareAnti && kind != qtree.JoinFullOuter {
		if probe, ok[candProbe] = jb.priceIndexProbe(in, equis); ok[candProbe] {
			probes := leftRows
			if kind == qtree.JoinSemi || kind == qtree.JoinAnti {
				// Semijoin/antijoin result caching (§2.1.1): one probe per
				// distinct left key.
				probes = math.Min(leftRows, jb.keyNDV(in, equis, probe.idx))
			}
			cost[candProbe] = l.Total + probes*probe.perProbe + leftRows*subqCacheProbe
		}
	}
	// Plain nested loops (materialized rescan of the right side), and
	// lateral re-execution for JPPD views.
	ok[candNL] = true
	if in.lateral {
		// Lateral executions also cache by correlation values.
		execs := math.Min(leftRows, in.lateralNDV)
		cost[candNL] = l.Total + execs*r.Total + leftRows*subqCacheProbe
	} else {
		scanFrac := 1.0
		if kind == qtree.JoinSemi || kind == qtree.JoinAnti || kind == qtree.JoinNullAwareAnti {
			scanFrac = 0.55 // stop at first match on average
		}
		cost[candNL] = l.Total + r.Total +
			leftRows*rightRows*scanFrac*(rescanRowCost+evalCost(conds))
	}

	c := pickJoin(cost, ok, jb.p.ForceJoin)
	if incumbent != nil && !(cost[c] < incumbent.Cost().Total) {
		return nil
	}
	node := &Join{Method: candMethod[c], Kind: kind, L: left.node}
	switch c {
	case candHash:
		node.R, node.On = in.self, predExprs(residual)
		for _, ep := range equis {
			node.EqL = append(node.EqL, ep.left)
			node.EqR = append(node.EqR, ep.right)
			node.NullSafeEq = append(node.NullSafeEq, ep.nullSafe)
		}
	case candProbe:
		scan, unused := jb.buildIndexProbe(in, equis, probe)
		node.R, node.On, node.RLateral = scan, append(predExprs(residual), unused...), true
	default:
		node.R, node.On, node.RLateral = in.self, predExprs(conds), in.lateral
	}
	node.cols = joinOutCols(left.node, in.self, kind)
	node.cost = Cost{Total: cost[c], Rows: outRows}
	return node
}

// split decomposes p as left-expr = right-expr across the join of the
// inputs in leftMask with the input rightBit.
func (p *joinPred) split(leftMask, rightBit uint64) (equiPred, bool) {
	b := p.eq
	if b == nil || p.lm == 0 || p.rm == 0 {
		return equiPred{}, false
	}
	nullSafe := b.Op == qtree.OpNullSafeEq
	switch {
	case p.lm&^leftMask == 0 && p.rm&^rightBit == 0:
		return equiPred{left: b.L, right: b.R, nullSafe: nullSafe}, true
	case p.rm&^leftMask == 0 && p.lm&^rightBit == 0:
		return equiPred{left: b.R, right: b.L, nullSafe: nullSafe}, true
	}
	return equiPred{}, false
}

// evalCost is predsEvalCost of the predicates.
func evalCost(preds []*joinPred) float64 {
	c := float64(len(preds)) * cpuEvalCost
	for _, p := range preds {
		c += p.evalCost
	}
	return c
}

// selectivityAll is estimator.selectivityAll of the predicates.
func selectivityAll(preds []*joinPred) float64 {
	s := 1.0
	for _, p := range preds {
		s *= p.sel
	}
	return clampSel(s)
}

// predExprs copies the predicates' expressions for a plan node to keep.
func predExprs(preds []*joinPred) []qtree.Expr {
	if len(preds) == 0 {
		return nil
	}
	out := make([]qtree.Expr, len(preds))
	for i, p := range preds {
		out[i] = p.e
	}
	return out
}

// keyNDV estimates the number of distinct left-side key combinations of
// an index probe.
func (jb *joinBuilder) keyNDV(in *joinInput, equis []equiPred, idx *catalog.Index) float64 {
	jb.keys = probeKeys(jb.keys[:0], in, idx, equis)
	n := 1.0
	for _, k := range jb.keys {
		n *= jb.es.ndv(equis[k].left)
	}
	return math.Max(n, 1)
}

// lateralNDV estimates distinct correlation bindings for a lateral view.
func (jb *joinBuilder) lateralNDV(in *joinInput) float64 {
	_, n := outerBindings(in.item.View, jb.es)
	return math.Max(n, 1)
}

// joinRows estimates the join output cardinality.
func (jb *joinBuilder) joinRows(leftRows, rightRows float64, kind qtree.JoinKind, equis []equiPred, residual []*joinPred) float64 {
	switch kind {
	case qtree.JoinSemi:
		return math.Max(leftRows*jb.matchFrac(equis, len(residual), rightRows), 1e-3)
	case qtree.JoinAnti, qtree.JoinNullAwareAnti:
		return math.Max(leftRows*(1-jb.matchFrac(equis, len(residual), rightRows)), 1e-3)
	case qtree.JoinInner, qtree.JoinLeftOuter, qtree.JoinFullOuter:
		rows := leftRows * rightRows
		for _, ep := range equis {
			rows /= math.Max(math.Max(jb.es.ndv(ep.left), jb.es.ndv(ep.right)), 1)
		}
		rows *= selectivityAll(residual)
		switch kind {
		case qtree.JoinLeftOuter:
			return math.Max(rows, leftRows)
		case qtree.JoinFullOuter:
			return math.Max(rows, math.Max(leftRows, rightRows))
		}
		return math.Max(rows, 1e-3)
	}
	return math.Max(leftRows, 1)
}

// matchFrac is the estimated fraction of left rows with at least one
// matching right row (containment assumption).
func (jb *joinBuilder) matchFrac(equis []equiPred, nResidual int, rightRows float64) float64 {
	frac := 1.0
	for _, ep := range equis {
		ndvL := jb.es.ndv(ep.left)
		ndvR := math.Min(jb.es.ndv(ep.right), rightRows)
		frac *= math.Min(1, ndvR/math.Max(ndvL, 1))
	}
	if len(equis) == 0 {
		// Pure residual-join semi/anti: assume most rows match something.
		frac = 0.8
	}
	frac *= math.Pow(0.9, float64(nResidual))
	if frac < 0.01 {
		frac = 0.01
	}
	if frac > 0.99 {
		frac = 0.99
	}
	return frac
}

// joinOutCols is the output schema of a join of l and r: l's columns for a
// semi- or antijoin, else l's then r's in one exact allocation.
func joinOutCols(l, r PlanNode, kind qtree.JoinKind) []ColID {
	switch kind {
	case qtree.JoinSemi, qtree.JoinAnti, qtree.JoinNullAwareAnti:
		return l.Columns()
	}
	return slices.Concat(l.Columns(), r.Columns())
}

// indexProbe is the cheapest index a nested-loops join can probe the
// joining table with.
type indexProbe struct {
	idx       *catalog.Index
	perProbe  float64
	matchRows float64
}

// probeKeys appends to keys the equi predicates that key a probe of idx
// (right side = indexed column, one per leading index column, in column
// order).
func probeKeys(keys []int, in *joinInput, idx *catalog.Index, equis []equiPred) []int {
	for _, colOrd := range idx.Cols {
		found := -1
		for ei, ep := range equis {
			if slices.Contains(keys, ei) {
				continue
			}
			if c, ok := ep.right.(*qtree.Col); ok && c.From == in.item.ID && c.Ord == colOrd && !ep.nullSafe {
				found = ei
				break
			}
		}
		if found < 0 {
			break
		}
		keys = append(keys, found)
	}
	return keys
}

// priceIndexProbe finds the index of the joining table whose probe, keyed
// by the equi predicates, is cheapest; ok is false when none applies.
func (jb *joinBuilder) priceIndexProbe(in *joinInput, equis []equiPred) (best indexProbe, ok bool) {
	t := in.item.Table
	baseRows := 1000.0
	if st := t.Stats(); st != nil {
		baseRows = math.Max(float64(st.RowCount), 1)
	}
	for _, idx := range t.Indexes {
		jb.keys = probeKeys(jb.keys[:0], in, idx, equis)
		if len(jb.keys) == 0 {
			continue
		}
		matchSel := 1.0
		for i := range jb.keys {
			ci, _ := jb.es.col(&qtree.Col{From: in.item.ID, Ord: idx.Cols[i]})
			matchSel *= clampSel(1 / math.Max(ci.ndv, 1))
		}
		matchRows := math.Max(baseRows*matchSel, 1e-3)
		perProbe := indexProbeCost + matchRows*indexRowCost + matchRows*in.predsCost
		if !ok || perProbe < best.perProbe {
			best, ok = indexProbe{idx: idx, perProbe: perProbe, matchRows: matchRows}, true
		}
	}
	return best, ok
}

// buildIndexProbe builds the IndexScan of a priced probe. The equi
// predicates that do not key it are returned as residual conditions.
func (jb *joinBuilder) buildIndexProbe(in *joinInput, equis []equiPred, probe indexProbe) (*IndexScan, []qtree.Expr) {
	used := probeKeys(nil, in, probe.idx, equis)
	keys := make([]qtree.Expr, len(used))
	for i, k := range used {
		keys[i] = equis[k].left
	}
	var residual []qtree.Expr
	for ei, ep := range equis {
		if !slices.Contains(used, ei) {
			residual = append(residual, &qtree.Bin{Op: qtree.OpEq, L: ep.left, R: ep.right})
		}
	}
	filter := append([]qtree.Expr(nil), in.preds...)
	node := &IndexScan{
		Table: in.item.Table, From: in.item.ID, Index: probe.idx,
		EqKeys: keys, Filter: filter,
	}
	node.cols = tableCols(in.item)
	node.cost = Cost{Total: probe.perProbe, Rows: math.Max(probe.matchRows*jb.es.selectivityAll(filter), 1e-3)}
	return node, residual
}

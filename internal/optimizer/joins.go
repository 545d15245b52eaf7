package optimizer

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

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
	// parameters) used by access-path selection.
	preds []qtree.Expr
	// self is the best standalone access path.
	self PlanNode
	// cond is the effective non-inner join condition: the item's Cond
	// minus single-item conjuncts, which are pushed into the access path
	// (filtering the right side of a semi/anti/outer join first is always
	// equivalent).
	cond []qtree.Expr
	// prereq is the bitmask of inputs that must be joined before this one
	// (non-inner join condition references; lateral view references).
	prereq uint64
	// mustFollow forbids this input from starting the join order
	// (semijoin/antijoin/outer-join right sides and lateral views).
	mustFollow bool
	// lateral marks a lateral (JPPD) view re-executed per outer row.
	lateral bool
	// viewNode is the planned view body for view inputs.
	viewNode PlanNode
}

// joinBuilder runs join enumeration for one block.
type joinBuilder struct {
	p         *Planner
	q         *qtree.Query
	b         *qtree.Block
	es        *estimator
	inputs    []*joinInput
	joinPreds []qtree.Expr
	predMask  []uint64 // local refs of each join pred as an input bitmask
	idToIdx   map[qtree.FromID]int
	plan      *Plan
}

// dpEntry is the best plan found for a subset of inputs.
type dpEntry struct {
	node PlanNode
	mask uint64
}

func (p *Planner) newJoinBuilder(q *qtree.Query, b *qtree.Block, itemPreds map[qtree.FromID][]qtree.Expr, joinPreds []qtree.Expr, plan *Plan) (*joinBuilder, error) {
	jb := &joinBuilder{
		p: p, q: q, b: b,
		es:        newEstimator(),
		joinPreds: joinPreds,
		idToIdx:   map[qtree.FromID]int{},
		plan:      plan,
	}
	for i, f := range b.From {
		jb.idToIdx[f.ID] = i
	}
	local := b.LocalFromIDs()

	// Register relations and plan views.
	viewNodes := map[qtree.FromID]PlanNode{}
	for _, f := range b.From {
		if f.Table != nil {
			jb.es.addTable(f.ID, f.Table)
			continue
		}
		node, info, err := p.planBlock(q, f.View, f.ID, plan)
		if err != nil {
			return nil, err
		}
		viewNodes[f.ID] = node
		jb.es.addDerived(f.ID, info.rows, info.ndvs)
	}

	for i, f := range b.From {
		in := &joinInput{idx: i, item: f, preds: itemPreds[f.ID], viewNode: viewNodes[f.ID]}
		if f.Kind != qtree.JoinInner {
			in.mustFollow = true
			for _, c := range f.Cond {
				selfOnly := true
				for id := range exprRefs(c) {
					if local[id] && id != f.ID {
						selfOnly = false
					}
				}
				// Pre-filtering the right side is equivalent for semi, anti
				// and left outer joins, but NOT for full outer: rows failing
				// the ON condition must still surface null-padded.
				if f.Kind == qtree.JoinFullOuter {
					selfOnly = false
				}
				if selfOnly && !containsSubq(c) {
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
					in.cond = append(in.cond, c)
				}
			}
			for id := range refsOfConds(f.Cond) {
				if local[id] && id != f.ID {
					in.prereq |= 1 << uint(jb.idToIdx[id])
				}
			}
		}
		in.self = jb.standaloneAccess(f, in.preds, in.viewNode)
		if f.Lateral && f.View != nil {
			in.lateral = true
			in.mustFollow = true
			for id := range f.View.OuterRefs() {
				if local[id] {
					in.prereq |= 1 << uint(jb.idToIdx[id])
				}
			}
		}
		jb.inputs = append(jb.inputs, in)
	}

	// Precompute join predicate reference masks.
	jb.predMask = make([]uint64, len(joinPreds))
	for i, pr := range joinPreds {
		for id := range exprRefs(pr) {
			if local[id] {
				jb.predMask[i] |= 1 << uint(jb.idToIdx[id])
			}
		}
	}
	return jb, nil
}

func refsOfConds(conds []qtree.Expr) map[qtree.FromID]bool {
	out := map[qtree.FromID]bool{}
	for _, c := range conds {
		qtree.ExprCols(c, func(col *qtree.Col) { out[col.From] = true })
	}
	return out
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
	best := make([]*dpEntry, full+1)
	for i, in := range jb.inputs {
		if in.mustFollow {
			continue
		}
		best[1<<uint(i)] = &dpEntry{node: in.self, mask: 1 << uint(i)}
	}
	cut := jb.p.Cutoff
	cutoffHit := false
	for mask := uint64(1); mask <= full; mask++ {
		e := best[mask]
		if e == nil {
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
			cand, err := jb.joinTo(e, j)
			if err != nil {
				return nil, err
			}
			nm := mask | bit
			if best[nm] == nil || cand.Cost().Total < best[nm].node.Cost().Total {
				best[nm] = &dpEntry{node: cand, mask: nm}
			}
		}
	}
	if best[full] == nil {
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
	var cur *dpEntry
	for i, in := range jb.inputs {
		if in.mustFollow {
			continue
		}
		if cur == nil || in.self.Cost().Total < cur.node.Cost().Total {
			cur = &dpEntry{node: in.self, mask: 1 << uint(i)}
		}
	}
	if cur == nil {
		return nil, errors.New("optimizer: no valid leading relation")
	}
	for bits.OnesCount64(cur.mask) < n {
		var bestNext *dpEntry
		for j := 0; j < n; j++ {
			bit := uint64(1) << uint(j)
			if cur.mask&bit != 0 || jb.inputs[j].prereq&^cur.mask != 0 {
				continue
			}
			cand, err := jb.joinTo(cur, j)
			if err != nil {
				return nil, err
			}
			if bestNext == nil || cand.Cost().Total < bestNext.node.Cost().Total {
				bestNext = &dpEntry{node: cand, mask: cur.mask | bit}
			}
		}
		if bestNext == nil {
			return nil, errors.New("optimizer: greedy join order stuck (constraint cycle)")
		}
		cur = bestNext
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

// joinTo joins input j onto the left entry and returns the cheapest method.
func (jb *joinBuilder) joinTo(left *dpEntry, j int) (PlanNode, error) {
	in := jb.inputs[j]
	bit := uint64(1) << uint(j)
	newMask := left.mask | bit

	// Newly applicable join predicates.
	var conds []qtree.Expr
	for i, pr := range jb.joinPreds {
		m := jb.predMask[i]
		if m&^newMask == 0 && m&bit != 0 {
			conds = append(conds, pr)
		}
	}
	// Non-inner join conditions always apply at this join.
	kind := qtree.JoinInner
	if in.item.Kind != qtree.JoinInner {
		kind = in.item.Kind
		conds = append(conds, in.cond...)
	}

	// Split equi predicates.
	var equis []equiPred
	var residual []qtree.Expr
	for _, c := range conds {
		if ep, ok := jb.splitEqui(c, left.mask, bit); ok {
			equis = append(equis, ep)
		} else {
			residual = append(residual, c)
		}
	}

	leftRows := left.node.Cost().Rows
	rightRows := in.self.Cost().Rows
	outRows := jb.joinRows(left, in, kind, equis, residual)

	var candidates []PlanNode
	outCols := joinOutCols(left.node, in.self, kind)

	// Hash join (build right, probe left).
	if len(equis) > 0 && !in.lateral {
		hj := &Join{Method: MethodHash, Kind: kind, L: left.node, R: in.self, On: residual}
		for _, ep := range equis {
			hj.EqL = append(hj.EqL, ep.left)
			hj.EqR = append(hj.EqR, ep.right)
			hj.NullSafeEq = append(hj.NullSafeEq, ep.nullSafe)
		}
		hj.cols = outCols
		hj.cost = Cost{
			Total: left.node.Cost().Total + in.self.Cost().Total +
				rightRows*hashBuildCost + leftRows*hashProbeCost +
				outRows*predsEvalCost(residual),
			Rows: outRows,
		}
		candidates = append(candidates, hj)
	}

	// Nested loops with an index probe on the right (base tables). A full
	// outer join needs the whole right side to report unmatched rows, so
	// the probe path does not apply.
	if in.item.Table != nil && len(equis) > 0 &&
		kind != qtree.JoinNullAwareAnti && kind != qtree.JoinFullOuter {
		if probe := jb.tryIndexProbe(in, equis); probe != nil {
			nl := &Join{Method: MethodNL, Kind: kind, L: left.node, R: probe.node, On: append(residual, probe.residual...), RLateral: true}
			nl.cols = outCols
			probes := leftRows
			if kind == qtree.JoinSemi || kind == qtree.JoinAnti {
				// Semijoin/antijoin result caching (§2.1.1): one probe per
				// distinct left key.
				probes = math.Min(leftRows, jb.keyNDV(probe.usedEquis))
			}
			nl.cost = Cost{
				Total: left.node.Cost().Total + probes*probe.perProbe + leftRows*subqCacheProbe,
				Rows:  outRows,
			}
			candidates = append(candidates, nl)
		}
	}

	// Plain nested loops (materialized rescan of the right side), and
	// lateral re-execution for JPPD views.
	{
		nl := &Join{Method: MethodNL, Kind: kind, L: left.node, R: in.self, On: conds, RLateral: in.lateral}
		nl.cols = outCols
		var total float64
		if in.lateral {
			execs := leftRows
			// Lateral executions also cache by correlation values.
			execs = math.Min(execs, jb.lateralNDV(in))
			total = left.node.Cost().Total + execs*in.self.Cost().Total + leftRows*subqCacheProbe
		} else {
			scanFrac := 1.0
			if kind == qtree.JoinSemi || kind == qtree.JoinAnti || kind == qtree.JoinNullAwareAnti {
				scanFrac = 0.55 // stop at first match on average
			}
			total = left.node.Cost().Total + in.self.Cost().Total +
				leftRows*rightRows*scanFrac*(rescanRowCost+predsEvalCost(conds))
		}
		nl.cost = Cost{Total: total, Rows: outRows}
		candidates = append(candidates, nl)
	}

	// A join-method hint filters the candidates when applicable.
	if jb.p.ForceJoin != nil {
		var forced []PlanNode
		for _, c := range candidates {
			if j, ok := c.(*Join); ok && j.Method == *jb.p.ForceJoin {
				forced = append(forced, c)
			}
		}
		if len(forced) > 0 {
			candidates = forced
		}
	}
	var best PlanNode
	for _, c := range candidates {
		if best == nil || c.Cost().Total < best.Cost().Total {
			best = c
		}
	}
	return best, nil
}

// keyNDV estimates the number of distinct left-side key combinations.
func (jb *joinBuilder) keyNDV(equis []equiPred) float64 {
	n := 1.0
	for _, ep := range equis {
		n *= jb.es.ndv(ep.left)
	}
	return math.Max(n, 1)
}

// lateralNDV estimates distinct correlation bindings for a lateral view.
func (jb *joinBuilder) lateralNDV(in *joinInput) float64 {
	n := 1.0
	for _, c := range collectOuterCols(in.item.View, jb.es) {
		if ci, ok := jb.es.col(c); ok {
			n *= math.Max(ci.ndv, 1)
		}
	}
	return math.Max(n, 1)
}

// splitEqui decomposes c as left-expr = right-expr across the join.
func (jb *joinBuilder) splitEqui(c qtree.Expr, leftMask, rightBit uint64) (equiPred, bool) {
	b, ok := c.(*qtree.Bin)
	if !ok || (b.Op != qtree.OpEq && b.Op != qtree.OpNullSafeEq) {
		return equiPred{}, false
	}
	lm := jb.refMask(b.L)
	rm := jb.refMask(b.R)
	switch {
	case lm&^leftMask == 0 && rm&^rightBit == 0 && rm != 0 && lm != 0:
		return equiPred{left: b.L, right: b.R, nullSafe: b.Op == qtree.OpNullSafeEq}, true
	case rm&^leftMask == 0 && lm&^rightBit == 0 && lm != 0 && rm != 0:
		return equiPred{left: b.R, right: b.L, nullSafe: b.Op == qtree.OpNullSafeEq}, true
	}
	return equiPred{}, false
}

func (jb *joinBuilder) refMask(e qtree.Expr) uint64 {
	var m uint64
	for id := range exprRefs(e) {
		if idx, ok := jb.idToIdx[id]; ok {
			m |= 1 << uint(idx)
		}
	}
	return m
}

// joinRows estimates the join output cardinality.
func (jb *joinBuilder) joinRows(left *dpEntry, in *joinInput, kind qtree.JoinKind, equis []equiPred, residual []qtree.Expr) float64 {
	leftRows := left.node.Cost().Rows
	rightRows := in.self.Cost().Rows
	switch kind {
	case qtree.JoinInner:
		rows := leftRows * rightRows
		for _, ep := range equis {
			rows /= math.Max(math.Max(jb.es.ndv(ep.left), jb.es.ndv(ep.right)), 1)
		}
		rows *= jb.es.selectivityAll(residual)
		return math.Max(rows, 1e-3)
	case qtree.JoinSemi:
		return math.Max(leftRows*jb.matchFrac(equis, residual, rightRows), 1e-3)
	case qtree.JoinAnti, qtree.JoinNullAwareAnti:
		return math.Max(leftRows*(1-jb.matchFrac(equis, residual, rightRows)), 1e-3)
	case qtree.JoinLeftOuter:
		rows := leftRows * rightRows
		for _, ep := range equis {
			rows /= math.Max(math.Max(jb.es.ndv(ep.left), jb.es.ndv(ep.right)), 1)
		}
		rows *= jb.es.selectivityAll(residual)
		return math.Max(rows, leftRows)
	case qtree.JoinFullOuter:
		rows := leftRows * rightRows
		for _, ep := range equis {
			rows /= math.Max(math.Max(jb.es.ndv(ep.left), jb.es.ndv(ep.right)), 1)
		}
		rows *= jb.es.selectivityAll(residual)
		return math.Max(rows, math.Max(leftRows, rightRows))
	}
	return math.Max(leftRows, 1)
}

// matchFrac is the estimated fraction of left rows with at least one
// matching right row (containment assumption).
func (jb *joinBuilder) matchFrac(equis []equiPred, residual []qtree.Expr, rightRows float64) float64 {
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
	frac *= math.Pow(0.9, float64(len(residual)))
	if frac < 0.01 {
		frac = 0.01
	}
	if frac > 0.99 {
		frac = 0.99
	}
	return frac
}

func joinOutCols(l, r PlanNode, kind qtree.JoinKind) []ColID {
	switch kind {
	case qtree.JoinSemi, qtree.JoinAnti, qtree.JoinNullAwareAnti:
		return l.Columns()
	}
	out := append([]ColID(nil), l.Columns()...)
	return append(out, r.Columns()...)
}

// indexProbe describes an index-based NL probe of the right input.
type indexProbe struct {
	node      PlanNode
	perProbe  float64
	usedEquis []equiPred
	residual  []qtree.Expr
}

// tryIndexProbe builds an IndexScan on the joining table using the equi
// predicates as probe keys (right side = indexed column).
func (jb *joinBuilder) tryIndexProbe(in *joinInput, equis []equiPred) *indexProbe {
	t := in.item.Table
	baseRows := 1000.0
	if st := t.Stats(); st != nil {
		baseRows = math.Max(float64(st.RowCount), 1)
	}
	var best *indexProbe
	for _, idx := range t.Indexes {
		var keys []qtree.Expr
		var used []equiPred
		usedSet := map[int]bool{}
		for _, colOrd := range idx.Cols {
			found := false
			for ei, ep := range equis {
				if usedSet[ei] {
					continue
				}
				if c, ok := ep.right.(*qtree.Col); ok && c.From == in.item.ID && c.Ord == colOrd && !ep.nullSafe {
					keys = append(keys, ep.left)
					used = append(used, ep)
					usedSet[ei] = true
					found = true
					break
				}
			}
			if !found {
				break
			}
		}
		if len(keys) == 0 {
			continue
		}
		var residual []qtree.Expr
		for ei, ep := range equis {
			if !usedSet[ei] {
				residual = append(residual, &qtree.Bin{Op: qtree.OpEq, L: ep.left, R: ep.right})
			}
		}
		matchSel := 1.0
		for i := range keys {
			ci, _ := jb.es.col(&qtree.Col{From: in.item.ID, Ord: idx.Cols[i]})
			matchSel *= clampSel(1 / math.Max(ci.ndv, 1))
		}
		matchRows := math.Max(baseRows*matchSel, 1e-3)
		filter := append([]qtree.Expr(nil), in.preds...)
		node := &IndexScan{
			Table: t, From: in.item.ID, Index: idx,
			EqKeys: keys, Filter: filter,
		}
		node.cols = tableCols(in.item)
		perProbe := indexProbeCost + matchRows*indexRowCost + matchRows*predsEvalCost(filter)
		node.cost = Cost{Total: perProbe, Rows: math.Max(matchRows*jb.es.selectivityAll(filter), 1e-3)}
		cand := &indexProbe{node: node, perProbe: perProbe, usedEquis: used, residual: residual}
		if best == nil || cand.perProbe < best.perProbe {
			best = cand
		}
	}
	return best
}

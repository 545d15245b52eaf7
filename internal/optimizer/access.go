package optimizer

import (
	"math"

	"repro/internal/catalog"
	"repro/internal/datum"
	"repro/internal/qtree"
)

// standaloneAccess picks the cheapest access path for a from item given its
// single-item predicates (which may reference correlation parameters):
// sequential scan versus the best index equality/range scan.
func (jb *joinBuilder) standaloneAccess(f *qtree.FromItem, preds []qtree.Expr, viewNode PlanNode) PlanNode {
	es := jb.es
	if f.View != nil {
		node := viewNode
		if len(preds) > 0 {
			flt := &Filter{Child: node, Preds: preds}
			flt.cols = node.Columns()
			flt.cost = Cost{
				Total: node.Cost().Total + node.Cost().Rows*predsEvalCost(preds),
				Rows:  math.Max(node.Cost().Rows*es.selectivityAll(preds), 1e-3),
			}
			node = flt
		}
		return node
	}

	t := f.Table
	baseRows := 1000.0
	if st := t.Stats(); st != nil {
		baseRows = math.Max(float64(st.RowCount), 1)
	}
	sel := es.selectivityAll(preds)

	// Sequential scan.
	seq := &SeqScan{Table: t, From: f.ID, Filter: preds}
	seq.cols = tableCols(f)
	seq.cost = Cost{
		Total: baseRows*cpuTupleCost + baseRows*predsEvalCost(preds),
		Rows:  math.Max(baseRows*sel, 1e-3),
	}
	var best PlanNode = seq

	// Index scans.
	for _, idx := range t.Indexes {
		node := jb.tryIndexAccess(f, idx, preds, baseRows)
		if node != nil && node.Cost().Total < best.Cost().Total {
			best = node
		}
	}
	return best
}

func tableCols(f *qtree.FromItem) []ColID {
	n := f.Table.NumCols() + 1 // + rowid
	cols := make([]ColID, n)
	for i := range cols {
		cols[i] = ColID{From: f.ID, Ord: i}
	}
	return cols
}

// tryIndexAccess builds an index scan for the item if some predicates match
// the index's leading columns; returns nil when the index is unusable.
func (jb *joinBuilder) tryIndexAccess(f *qtree.FromItem, idx *catalog.Index, preds []qtree.Expr, baseRows float64) PlanNode {
	var eqKeys []qtree.Expr
	used := map[int]bool{}
	// Match an equality prefix of the index columns.
	for _, col := range idx.Cols {
		found := -1
		var key qtree.Expr
		for pi, pr := range preds {
			if used[pi] {
				continue
			}
			c, k, ok := eqColKey(pr, f.ID, col, jb)
			if ok && c != nil {
				found, key = pi, k
				break
			}
		}
		if found < 0 {
			break
		}
		used[found] = true
		eqKeys = append(eqKeys, key)
	}

	var lo, hi qtree.Expr
	var loInc, hiInc bool
	if len(eqKeys) == 0 {
		// Try a range scan on the first index column. Only one bound per
		// direction can drive the scan; any further range predicates stay
		// as residual filters (dropping them would widen the result), and
		// among constant bounds the tightest is chosen.
		col := idx.Cols[0]
		loAt, hiAt := -1, -1
		for pi, pr := range preds {
			if used[pi] {
				continue
			}
			b, ok := pr.(*qtree.Bin)
			if !ok || !b.Op.IsComparison() {
				continue
			}
			side, bound, op := rangeOn(b, f.ID, col, jb)
			if side == 0 {
				continue
			}
			switch op {
			case qtree.OpGt, qtree.OpGe:
				if lo == nil || tighterConst(bound, lo, true) {
					if loAt >= 0 {
						used[loAt] = false // demote the previous bound to residual
					}
					lo, loInc, loAt = bound, op == qtree.OpGe, pi
					used[pi] = true
				}
			case qtree.OpLt, qtree.OpLe:
				if hi == nil || tighterConst(bound, hi, false) {
					if hiAt >= 0 {
						used[hiAt] = false
					}
					hi, hiInc, hiAt = bound, op == qtree.OpLe, pi
					used[pi] = true
				}
			}
		}
		if lo == nil && hi == nil {
			return nil
		}
	}

	var residual []qtree.Expr
	for pi, pr := range preds {
		if !used[pi] {
			residual = append(residual, pr)
		}
	}
	matchSel := 1.0
	if len(eqKeys) > 0 {
		for i := 0; i < len(eqKeys); i++ {
			ci, _ := jb.es.col(&qtree.Col{From: f.ID, Ord: idx.Cols[i]})
			matchSel *= clampSel(1 / math.Max(ci.ndv, 1))
		}
	} else {
		// Range selectivity.
		matchSel = 1.0 / 3.0
		if lo != nil && hi != nil {
			matchSel = 0.15
		}
		if cb := jb.es.value(lo); cb != nil {
			ci, _ := jb.es.col(&qtree.Col{From: f.ID, Ord: idx.Cols[0]})
			matchSel = colVsValue(ci, qtree.OpGe, cb)
		}
		if cb := jb.es.value(hi); cb != nil {
			ci, _ := jb.es.col(&qtree.Col{From: f.ID, Ord: idx.Cols[0]})
			s := colVsValue(ci, qtree.OpLe, cb)
			if lo != nil {
				matchSel = clampSel(matchSel + s - 1)
			} else {
				matchSel = s
			}
		}
	}
	matchRows := math.Max(baseRows*matchSel, 1e-3)
	outRows := math.Max(matchRows*jb.es.selectivityAll(residual), 1e-3)

	n := &IndexScan{
		Table: f.Table, From: f.ID, Index: idx,
		EqKeys: eqKeys, Lo: lo, Hi: hi, LoInc: loInc, HiInc: hiInc,
		Filter: residual,
	}
	n.cols = tableCols(f)
	n.cost = Cost{
		Total: indexProbeCost + matchRows*indexRowCost + matchRows*predsEvalCost(residual),
		Rows:  outRows,
	}
	return n
}

// tighterConst reports whether candidate is a provably tighter bound than
// current: a larger constant for lower bounds, smaller for upper bounds.
// Non-constant candidates never replace an existing bound.
func tighterConst(candidate, current qtree.Expr, lower bool) bool {
	cc, ok1 := candidate.(*qtree.Const)
	cu, ok2 := current.(*qtree.Const)
	if !ok1 || !ok2 {
		return false
	}
	cmp, err := datum.Compare(cc.Val, cu.Val)
	if err != nil {
		return false
	}
	if lower {
		return cmp > 0
	}
	return cmp < 0
}

// eqColKey matches pred as "col = key" where col is column ord of from id
// and key has no local references (constant or correlation parameter).
// It returns the column and key expression.
func eqColKey(pred qtree.Expr, id qtree.FromID, ord int, jb *joinBuilder) (*qtree.Col, qtree.Expr, bool) {
	b, ok := pred.(*qtree.Bin)
	if !ok || b.Op != qtree.OpEq {
		return nil, nil, false
	}
	if c, ok := b.L.(*qtree.Col); ok && c.From == id && c.Ord == ord {
		if jb.refMask(b.R) == 0 {
			return c, b.R, true
		}
	}
	if c, ok := b.R.(*qtree.Col); ok && c.From == id && c.Ord == ord {
		if jb.refMask(b.L) == 0 {
			return c, b.L, true
		}
	}
	return nil, nil, false
}

// rangeOn matches pred as a range bound on (id, ord): returns the bound
// expression and the operator with the column on the left.
func rangeOn(b *qtree.Bin, id qtree.FromID, ord int, jb *joinBuilder) (side int, bound qtree.Expr, op qtree.BinOp) {
	if c, ok := b.L.(*qtree.Col); ok && c.From == id && c.Ord == ord && jb.refMask(b.R) == 0 {
		return 1, b.R, b.Op
	}
	if c, ok := b.R.(*qtree.Col); ok && c.From == id && c.Ord == ord && jb.refMask(b.L) == 0 {
		return 2, b.L, b.Op.Commute()
	}
	return 0, nil, 0
}

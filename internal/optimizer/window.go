package optimizer

import (
	"math"

	"repro/internal/qtree"
)

// buildWindow plans the analytic-function step: it collects the distinct
// window functions from the select list, builds the Window node, and
// rewrites the select expressions to reference the window outputs.
func (p *Planner) buildWindow(child PlanNode, selExprs []qtree.Expr) (PlanNode, []qtree.Expr) {
	var funcs []*qtree.WinFunc
	collect := func(e qtree.Expr) {
		qtree.WalkExpr(e, func(x qtree.Expr) bool {
			if w, ok := x.(*qtree.WinFunc); ok {
				if qtree.IndexOf(funcs, w) < 0 {
					funcs = append(funcs, w)
				}
				return false
			}
			return true
		})
	}
	for _, e := range selExprs {
		collect(e)
	}

	win := &Window{Child: child, Funcs: funcs, OutFrom: p.newFromID()}
	win.cols = append(append([]ColID(nil), child.Columns()...), outputCols(win.OutFrom, len(funcs))...)
	rows := child.Cost().Rows
	n := math.Max(rows, 2)
	// Per function: partition (hash) + sort within partitions (for ordered
	// windows) + one accumulation per row.
	cost := child.Cost().Total
	for _, f := range funcs {
		cost += rows * hashBuildCost
		if len(f.OrderBy) > 0 {
			cost += sortFactor * n * math.Log2(n)
		}
		cost += rows * aggFnCost
	}
	win.cost = Cost{Total: cost, Rows: rows}

	out := make([]qtree.Expr, len(selExprs))
	for i, e := range selExprs {
		out[i] = rewriteWindowRefs(e, win)
	}
	return win, out
}

// rewriteWindowRefs replaces window function references with the Window
// node's output columns.
func rewriteWindowRefs(e qtree.Expr, win *Window) qtree.Expr {
	return qtree.RewriteExpr(e, func(x qtree.Expr) qtree.Expr {
		if w, ok := x.(*qtree.WinFunc); ok {
			if j := qtree.IndexOf(win.Funcs, w); j >= 0 {
				return &qtree.Col{From: win.OutFrom, Ord: j, Name: "WIN"}
			}
		}
		return nil
	})
}

package optimizer

import (
	"math"

	"repro/internal/catalog"
	"repro/internal/datum"
	"repro/internal/qtree"
)

// ParamPred is one parameter predicate of a bound query: a conjunct that
// compares a column of a base table with a bind parameter, whose estimate
// moves with the parameter's value.
type ParamPred struct {
	table *catalog.Table
	col   int
	op    qtree.BinOp // column op parameter
	param int         // qtree.Param.Ord
}

// ParamPreds lists q's parameter predicates: each WHERE conjunct of each
// block, in Block.Walk order, of the form "col op :p" or ":p op col", where
// col belongs to a base table of that block and op is a comparison whose
// estimate reads the value (not <>). A BETWEEN gives two. Call it on the
// bound tree, before any transformation moves a predicate.
func ParamPreds(q *qtree.Query) []ParamPred {
	var out []ParamPred
	q.Root.Walk(func(b *qtree.Block) bool {
		for _, e := range b.Where {
			out = appendParamPreds(out, b, e)
		}
		return true
	})
	return out
}

func appendParamPreds(out []ParamPred, b *qtree.Block, e qtree.Expr) []ParamPred {
	bin, ok := e.(*qtree.Bin)
	if !ok {
		return out
	}
	if bin.Op == qtree.OpAnd {
		return appendParamPreds(appendParamPreds(out, b, bin.L), b, bin.R)
	}
	if !bin.Op.IsComparison() || bin.Op == qtree.OpNe {
		return out
	}
	op := bin.Op
	col, isCol := bin.L.(*qtree.Col)
	prm, isParam := bin.R.(*qtree.Param)
	if !isCol || !isParam {
		op = bin.Op.Commute()
		col, isCol = bin.R.(*qtree.Col)
		prm, isParam = bin.L.(*qtree.Param)
	}
	if !isCol || !isParam {
		return out
	}
	f := b.FindFrom(col.From)
	if f == nil || f.Table == nil {
		return out
	}
	return append(out, ParamPred{table: f.Table, col: col.Ord, op: op, param: prm.Ord})
}

// Selectivity is the estimate of the predicate for binds, from its table's
// current statistics: what a planner with Binds set to binds estimates for
// it. A bind that is missing or NULL is estimated as an unknown value.
func (pp ParamPred) Selectivity(binds []datum.Datum) float64 {
	return colVsValue(baseColInfo(pp.table, pp.col), pp.op, bindValue(binds, pp.param))
}

// baseColInfo is the entry addTable registers for column ord of t, or what
// estimator.col answers for a column it has no entry for.
func baseColInfo(t *catalog.Table, ord int) colInfo {
	st := t.Stats()
	rows := tableRows(st)
	switch {
	case ord == t.RowidOrdinal():
		return colInfo{ndv: rows, rows: rows}
	case st == nil || ord >= len(t.Cols):
		return colInfo{ndv: math.Max(rows/10, 1), rows: rows}
	}
	return statsColInfo(st, ord, rows)
}

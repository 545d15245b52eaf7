package optimizer

import (
	"math"

	"repro/internal/catalog"
	"repro/internal/datum"
	"repro/internal/plancache"
	"repro/internal/qtree"
)

// ParamPred is one value predicate of a bound query: a conjunct that
// compares a column of a base table with a bind parameter or a constant,
// whose estimate moves with the value.
type ParamPred struct {
	table *catalog.Table
	col   int
	op    qtree.BinOp // column op value
	val   qtree.Expr  // the *qtree.Param or *qtree.Const compared with
}

// ParamPreds lists q's parameter predicates: each WHERE conjunct of each
// block, in Block.Walk order, of the form "col op :p" or ":p op col", where
// col belongs to a base table of that block and op is a comparison whose
// estimate reads the value (not <>). A BETWEEN gives two. Call it on the
// bound tree, before any transformation moves a predicate.
func ParamPreds(q *qtree.Query) []ParamPred { return valuePreds(q, false) }

// ValuePreds is ParamPreds with the predicates that compare a column with a
// constant ("col op literal") listed too, in the same walk: the predicates
// whose estimates make two texts of one template plan differently. all
// reports whether they are every comparison of a column with a value that
// q holds. One they miss (in an OR or under NOT, in an ON condition, in
// HAVING or a select list, or over a view's or an outer block's column) is
// read by an estimate now or once a transformation moves it, so a key
// built from the listed ones alone could not tell its texts apart.
func ValuePreds(q *qtree.Query) (preds []ParamPred, all bool) {
	preds = valuePreds(q, true)
	n := 0
	q.Root.Walk(func(b *qtree.Block) bool {
		b.VisitExprs(func(e qtree.Expr) {
			if bin, ok := e.(*qtree.Bin); ok {
				if _, _, _, ok := colVsValueOperands(bin, true); ok {
					n++
				}
			}
		})
		return true
	})
	return preds, n == len(preds)
}

// Bucketize is the bucket vector of preds under binds: element i is the
// bucket (plancache.BucketOf) of preds[i]'s estimate. ok is false, and the
// vector the zero (blind) one, when preds are more than a vector holds
// (plancache.MaxBucketed).
func Bucketize(preds []ParamPred, binds []datum.Datum) (b plancache.Buckets, ok bool) {
	if len(preds) > plancache.MaxBucketed {
		return b, false
	}
	for i, pp := range preds {
		b[i] = plancache.BucketOf(pp.Selectivity(binds))
	}
	return b, true
}

func valuePreds(q *qtree.Query, consts bool) []ParamPred {
	var out []ParamPred
	q.Root.Walk(func(b *qtree.Block) bool {
		for _, e := range b.Where {
			out = appendValuePreds(out, b, e, consts)
		}
		return true
	})
	return out
}

func appendValuePreds(out []ParamPred, b *qtree.Block, e qtree.Expr, consts bool) []ParamPred {
	bin, ok := e.(*qtree.Bin)
	if !ok {
		return out
	}
	if bin.Op == qtree.OpAnd {
		return appendValuePreds(appendValuePreds(out, b, bin.L, consts), b, bin.R, consts)
	}
	col, op, val, ok := colVsValueOperands(bin, consts)
	if !ok {
		return out
	}
	f := b.FindFrom(col.From)
	if f == nil || f.Table == nil {
		return out
	}
	return append(out, ParamPred{table: f.Table, col: col.Ord, op: op, val: val})
}

// colVsValueOperands splits a comparison whose estimate reads its value
// (colVsValue; not <>) of a column with a parameter, or with a constant
// when consts is set, into "col op val".
func colVsValueOperands(bin *qtree.Bin, consts bool) (col *qtree.Col, op qtree.BinOp, val qtree.Expr, ok bool) {
	if !bin.Op.IsComparison() || bin.Op == qtree.OpNe {
		return nil, 0, nil, false
	}
	isValue := func(e qtree.Expr) bool {
		switch e.(type) {
		case *qtree.Param:
			return true
		case *qtree.Const:
			return consts
		}
		return false
	}
	if col, ok := bin.L.(*qtree.Col); ok && isValue(bin.R) {
		return col, bin.Op, bin.R, true
	}
	if col, ok := bin.R.(*qtree.Col); ok && isValue(bin.L) {
		return col, bin.Op.Commute(), bin.L, true
	}
	return nil, 0, nil, false
}

// Selectivity is the estimate of the predicate for binds, from its table's
// current statistics: what a planner with Binds set to binds estimates for
// it. A bind that is missing or NULL is estimated as an unknown value.
func (pp ParamPred) Selectivity(binds []datum.Datum) float64 {
	return colVsValue(baseColInfo(pp.table, pp.col), pp.op, valueOf(pp.val, binds))
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

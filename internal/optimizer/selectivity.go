package optimizer

import (
	"math"

	"repro/internal/catalog"
	"repro/internal/datum"
	"repro/internal/qtree"
)

// Cost model constants (abstract units, roughly "per-tuple CPU touches").
const (
	cpuTupleCost    = 1.0  // producing one row from a scan
	cpuEvalCost     = 0.05 // evaluating one simple predicate on one row
	indexProbeCost  = 8.0  // descending a B-tree
	indexRowCost    = 1.5  // fetching one row through an index
	hashBuildCost   = 1.4  // inserting one row into a hash table
	hashProbeCost   = 1.0  // probing once
	sortFactor      = 0.35 // n·log2(n) multiplier
	aggRowCost      = 1.5  // grouping one row
	aggFnCost       = 0.3  // one aggregate accumulation
	distinctRowCost = 1.2
	projectRowCost  = 0.1
	rescanRowCost   = 0.2 // re-reading one materialized row
	defaultSel      = 0.1
	subqCacheProbe  = 0.3 // TIS cache lookup per outer row
)

// colInfo is what the estimator knows about one column of a from item.
type colInfo struct {
	ndv      float64
	nullFrac float64
	min, max datum.Datum
	hist     []catalog.HistBucket
	rows     float64
}

// relInfo is what the estimator knows about a from item (base table stats,
// or derived estimates for a view).
type relInfo struct {
	rows float64
	cols map[int]colInfo
}

// estimator resolves column statistics across the from items in scope.
type estimator struct {
	rels map[qtree.FromID]*relInfo
	// binds, when non-nil, are the values of the query's bind parameters:
	// a comparison of a column with a parameter is then estimated for its
	// value, not as one with an unknown constant (Planner.Binds).
	binds []datum.Datum
}

func newEstimator(binds []datum.Datum) *estimator {
	return &estimator{rels: map[qtree.FromID]*relInfo{}, binds: binds}
}

// addTable registers base-table statistics for a from item.
func (es *estimator) addTable(id qtree.FromID, t *catalog.Table) {
	st := t.Stats()
	ri := &relInfo{rows: tableRows(st), cols: map[int]colInfo{}}
	if st != nil {
		for i := range t.Cols {
			ri.cols[i] = statsColInfo(st, i, ri.rows)
		}
	}
	// rowid is unique.
	ri.cols[t.RowidOrdinal()] = colInfo{ndv: ri.rows, rows: ri.rows}
	es.rels[id] = ri
}

// tableRows is a base table's row estimate: its statistics' row count, or
// 1000 for a table never analyzed.
func tableRows(st *catalog.TableStats) float64 {
	if st == nil {
		return 1000
	}
	return math.Max(float64(st.RowCount), 1)
}

// statsColInfo is what the statistics st say about column ord of a table
// of rows rows.
func statsColInfo(st *catalog.TableStats, ord int, rows float64) colInfo {
	cs := st.Col(ord)
	ci := colInfo{
		ndv:  math.Max(float64(cs.NDV), 1),
		min:  cs.Min,
		max:  cs.Max,
		hist: cs.Hist,
		rows: rows,
	}
	if st.RowCount > 0 {
		ci.nullFrac = float64(cs.NullCount) / float64(st.RowCount)
	}
	return ci
}

// addDerived registers estimates for a view's output columns.
func (es *estimator) addDerived(id qtree.FromID, rows float64, ndvs []float64) {
	ri := &relInfo{rows: math.Max(rows, 1), cols: map[int]colInfo{}}
	for i, n := range ndvs {
		ri.cols[i] = colInfo{ndv: math.Max(n, 1), rows: ri.rows}
	}
	es.rels[id] = ri
}

// col returns what is known about a column; ok is false for parameters
// (correlated references to relations not in scope).
func (es *estimator) col(c *qtree.Col) (colInfo, bool) {
	ri, ok := es.rels[c.From]
	if !ok {
		return colInfo{}, false
	}
	ci, ok := ri.cols[c.Ord]
	if !ok {
		return colInfo{ndv: math.Max(ri.rows/10, 1), rows: ri.rows}, true
	}
	return ci, true
}

// ndv returns the distinct count estimate for an arbitrary expression.
func (es *estimator) ndv(e qtree.Expr) float64 {
	switch v := e.(type) {
	case *qtree.Col:
		if ci, ok := es.col(v); ok {
			return ci.ndv
		}
		return 25 // unknown parameter domain
	case *qtree.Const:
		return 1
	}
	return 25
}

// selectivity estimates the fraction of rows satisfying predicate e.
// Column references to relations not registered in the estimator are
// treated as parameters (constants of unknown value).
func (es *estimator) selectivity(e qtree.Expr) float64 {
	switch v := e.(type) {
	case *qtree.Const:
		if v.Val.Kind() == datum.KBool {
			if v.Val.Bool() {
				return 1
			}
			return 0
		}
		return defaultSel

	case *qtree.Bin:
		return es.binSelectivity(v)

	case *qtree.Not:
		return clampSel(1 - es.selectivity(v.E))

	case *qtree.IsNull:
		if c, ok := v.E.(*qtree.Col); ok {
			if ci, ok := es.col(c); ok {
				if v.Neg {
					return clampSel(1 - ci.nullFrac)
				}
				return clampSel(ci.nullFrac)
			}
		}
		if v.Neg {
			return 0.95
		}
		return 0.05

	case *qtree.InList:
		var s float64
		for range v.Vals {
			s += es.eqSelectivity(v.E)
		}
		s = clampSel(s)
		if v.Neg {
			s = clampSel(1 - s)
		}
		return s

	case *qtree.Like:
		if v.Neg {
			return 0.9
		}
		return 0.05

	case *qtree.LNNVL:
		return clampSel(1 - es.selectivity(v.E))

	case *qtree.IsTrue:
		return es.selectivity(v.E)

	case *qtree.Func:
		return 0.25

	case *qtree.Subq:
		switch v.Kind {
		case qtree.SubqExists, qtree.SubqIn:
			return 0.5
		case qtree.SubqNotExists, qtree.SubqNotIn:
			return 0.5
		case qtree.SubqAnyCmp:
			return 0.4
		case qtree.SubqAllCmp:
			return 0.2
		}
		return defaultSel
	}
	return defaultSel
}

func (es *estimator) binSelectivity(b *qtree.Bin) float64 {
	switch b.Op {
	case qtree.OpAnd:
		return clampSel(es.selectivity(b.L) * es.selectivity(b.R))
	case qtree.OpOr:
		l, r := es.selectivity(b.L), es.selectivity(b.R)
		return clampSel(l + r - l*r)
	}
	if !b.Op.IsComparison() {
		return defaultSel
	}
	l, lIsCol := b.L.(*qtree.Col)
	r, rIsCol := b.R.(*qtree.Col)
	// Scalar subquery comparisons behave like comparisons with an unknown
	// constant.
	if _, ok := b.R.(*qtree.Subq); ok {
		return cmpDefaultSel(b.Op)
	}
	switch {
	case lIsCol && rIsCol:
		li, lOK := es.col(l)
		ri, rOK := es.col(r)
		switch {
		case lOK && rOK:
			// Join predicate used as a filter.
			if b.Op == qtree.OpEq || b.Op == qtree.OpNullSafeEq {
				return clampSel(1 / math.Max(li.ndv, ri.ndv))
			}
			return cmpDefaultSel(b.Op)
		case lOK:
			return colVsValue(li, b.Op, nil)
		case rOK:
			return colVsValue(ri, b.Op.Commute(), nil)
		default:
			return cmpDefaultSel(b.Op)
		}
	case lIsCol:
		if ci, ok := es.col(l); ok {
			return colVsValue(ci, b.Op, es.value(b.R))
		}
		return cmpDefaultSel(b.Op)
	case rIsCol:
		if ci, ok := es.col(r); ok {
			return colVsValue(ci, b.Op.Commute(), es.value(b.L))
		}
		return cmpDefaultSel(b.Op)
	}
	return cmpDefaultSel(b.Op)
}

// value is the known value of a comparison operand: a literal's, or a bind
// parameter's when the estimator peeks binds. It is nil for anything else.
func (es *estimator) value(e qtree.Expr) *datum.Datum { return valueOf(e, es.binds) }

// valueOf is the value e compares with under binds: a constant's, or a
// parameter's bind (bindValue); nil for any other expression.
func valueOf(e qtree.Expr, binds []datum.Datum) *datum.Datum {
	switch v := e.(type) {
	case *qtree.Const:
		return &v.Val
	case *qtree.Param:
		return bindValue(binds, v.Ord)
	}
	return nil
}

// bindValue is bind ord of binds, or nil when binds do not hold it or hold
// NULL (a comparison with NULL is estimated as one with an unknown value).
func bindValue(binds []datum.Datum, ord int) *datum.Datum {
	if ord < 0 || ord >= len(binds) || binds[ord].IsNull() {
		return nil
	}
	return &binds[ord]
}

// eqSelectivity is the selectivity of "e = <one value>".
func (es *estimator) eqSelectivity(e qtree.Expr) float64 {
	if c, ok := e.(*qtree.Col); ok {
		if ci, ok := es.col(c); ok {
			return clampSel(1 / ci.ndv)
		}
	}
	return 0.05
}

// colVsValue estimates "col <op> value"; val may be nil (unknown constant /
// parameter).
func colVsValue(ci colInfo, op qtree.BinOp, val *datum.Datum) float64 {
	switch op {
	case qtree.OpEq, qtree.OpNullSafeEq:
		if val != nil && len(ci.hist) > 0 {
			// Equi-height histogram: locate the value's bucket.
			var total, inBucket float64
			for _, bk := range ci.hist {
				total += float64(bk.Count)
			}
			for _, bk := range ci.hist {
				if cmp, err := datum.Compare(*val, bk.UpperBound); err == nil && cmp <= 0 {
					inBucket = float64(bk.Count)
					break
				}
			}
			if total > 0 && inBucket > 0 {
				// Assume the bucket holds ndv/buckets distinct values.
				perVal := inBucket / math.Max(ci.ndv/float64(len(ci.hist)), 1)
				return clampSel(perVal / ci.rows)
			}
		}
		return clampSel(1 / ci.ndv)
	case qtree.OpNe:
		return clampSel(1 - 1/ci.ndv)
	case qtree.OpLt, qtree.OpLe, qtree.OpGt, qtree.OpGe:
		if val != nil && len(ci.hist) > 0 {
			return clampSel(histRangeFrac(ci, op, *val))
		}
		if val != nil && !ci.min.IsNull() && !ci.max.IsNull() {
			if f, ok := interpolate(ci.min, ci.max, *val); ok {
				if op == qtree.OpLt || op == qtree.OpLe {
					return clampSel(f)
				}
				return clampSel(1 - f)
			}
		}
		return cmpDefaultSel(op)
	}
	return cmpDefaultSel(op)
}

// histRangeFrac computes the fraction of rows below/above val using the
// equi-height histogram, interpolating linearly within the boundary bucket
// so that narrow ranges (lo and hi in the same bucket) still produce a
// sensible estimate.
func histRangeFrac(ci colInfo, op qtree.BinOp, val datum.Datum) float64 {
	var total, below float64
	for _, bk := range ci.hist {
		total += float64(bk.Count)
	}
	if total == 0 {
		return cmpDefaultSel(op)
	}
	prev := ci.min
	for _, bk := range ci.hist {
		cmp, err := datum.Compare(bk.UpperBound, val)
		if err != nil {
			return cmpDefaultSel(op)
		}
		if cmp <= 0 {
			below += float64(bk.Count)
			prev = bk.UpperBound
			continue
		}
		// val falls inside this bucket: interpolate within it.
		inBucket := 0.5
		if !prev.IsNull() {
			if f, ok := interpolate(prev, bk.UpperBound, val); ok {
				inBucket = f
			}
		}
		below += float64(bk.Count) * inBucket
		break
	}
	frac := below / total
	if op == qtree.OpLt || op == qtree.OpLe {
		return frac
	}
	return 1 - frac
}

// interpolate positions val within [min, max] for numeric or string ranges.
func interpolate(min, max, val datum.Datum) (float64, bool) {
	if min.Kind() == datum.KString {
		if max.Kind() != datum.KString || val.Kind() != datum.KString {
			return 0, false
		}
		// All-digit strings (dates like '19980101') interpolate numerically,
		// which is far more accurate than byte-prefix ranking across a
		// leading-digit boundary.
		if a, ok1 := digitsVal(min.Str()); ok1 {
			if b, ok2 := digitsVal(max.Str()); ok2 {
				if v, ok3 := digitsVal(val.Str()); ok3 && b > a {
					return clamp01(float64(v-a) / float64(b-a)), true
				}
			}
		}
		lo, hi, v := prefixRank(min.Str()), prefixRank(max.Str()), prefixRank(val.Str())
		if hi <= lo {
			return 0.5, true
		}
		return clamp01((v - lo) / (hi - lo)), true
	}
	// Numeric.
	switch val.Kind() {
	case datum.KInt, datum.KFloat:
	default:
		return 0, false
	}
	lo, hi, v := min.Float(), max.Float(), val.Float()
	if hi <= lo {
		return 0.5, true
	}
	return clamp01((v - lo) / (hi - lo)), true
}

// digitsVal parses a short all-digit string as an integer.
func digitsVal(s string) (int64, bool) {
	if s == "" || len(s) > 18 {
		return 0, false
	}
	var v int64
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + int64(c-'0')
	}
	return v, true
}

// prefixRank maps a string's first bytes to a comparable float.
func prefixRank(s string) float64 {
	var r float64
	mult := 1.0
	for i := 0; i < 8; i++ {
		var b byte
		if i < len(s) {
			b = s[i]
		}
		mult /= 256
		r += float64(b) * mult
	}
	return r
}

func cmpDefaultSel(op qtree.BinOp) float64 {
	switch op {
	case qtree.OpEq, qtree.OpNullSafeEq:
		return 0.05
	case qtree.OpNe:
		return 0.9
	default:
		return 1.0 / 3.0
	}
}

func clampSel(s float64) float64 {
	if s < 1e-6 {
		return 1e-6
	}
	if s > 1 {
		return 1
	}
	return s
}

func clamp01(f float64) float64 {
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// selectivityAll multiplies the selectivities of conjuncts.
func (es *estimator) selectivityAll(preds []qtree.Expr) float64 {
	s := 1.0
	for _, p := range preds {
		s *= es.selectivity(p)
	}
	return clampSel(s)
}

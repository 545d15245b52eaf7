package exec

import (
	"fmt"
	"slices"

	"repro/internal/datum"
	"repro/internal/optimizer"
	"repro/internal/qtree"
)

// subqRuntime caches the compiled iterator, the full correlation column
// set, and — for uncorrelated subqueries — the materialized result with
// lookup structures, so an uncorrelated subquery executes exactly once no
// matter how many outer rows probe it (matching the optimizer's
// effective-execution model).
type subqRuntime struct {
	iter         iterator
	corrCols     []optimizer.ColID
	uncorrelated bool

	// Materialization state for uncorrelated subqueries.
	matDone bool
	rows    []Row

	// inSet answers single-row IN probes in O(1): keys of null-free rows.
	inSet     map[string]bool
	inAnyNull bool // some row has a null in a compared column
}

// subqRuntimes lazily compiles subquery iterators.
func (e *env) subqRuntime(s *qtree.Subq) (*subqRuntime, error) {
	if e.subqIters == nil {
		e.subqIters = map[*qtree.Subq]*subqRuntime{}
	}
	if rt, ok := e.subqIters[s]; ok {
		return rt, nil
	}
	sp, ok := e.plan.Subplans[s]
	if !ok {
		return nil, fmt.Errorf("exec: no subplan compiled for %s subquery", s.Kind)
	}
	// The TIS cache key: each distinct outer (from, ord) pair once.
	var corrCols []optimizer.ColID
	s.Block.OuterCols(func(c *qtree.Col) {
		if id := (optimizer.ColID{From: c.From, Ord: c.Ord}); !slices.Contains(corrCols, id) {
			corrCols = append(corrCols, id)
		}
	})
	// Uncorrelated subplans execute exactly once and are materialized, so
	// they benefit from the batch engine; the RowIter adapter feeds the
	// materialization row-wise. Correlated subplans are re-opened per outer
	// row over usually-small inputs, where per-open batch buffering would
	// cost more than it saves — they stay on the row engine.
	var it iterator
	if len(corrCols) == 0 && !e.opts.RowExec {
		bit, err := buildBatch(e, sp.Root)
		if err != nil {
			return nil, err
		}
		it = NewRowIter(bit)
	} else {
		rit, err := build(e, sp.Root)
		if err != nil {
			return nil, err
		}
		it = rit
	}
	rt := &subqRuntime{iter: it, corrCols: corrCols}
	rt.uncorrelated = len(rt.corrCols) == 0
	e.subqIters[s] = rt
	return rt, nil
}

// execute runs the subquery and returns all rows; for uncorrelated
// subqueries the result is materialized once and reused.
func (e *env) execute(rt *subqRuntime, ctx *Ctx, earlyOut func(n int) bool) ([]Row, error) {
	if rt.uncorrelated && rt.matDone {
		return rt.rows, nil
	}
	e.SubqExecs++
	if err := rt.iter.Open(ctx); err != nil {
		return nil, err
	}
	var rows []Row
	for {
		r, err := rt.iter.Next()
		if err != nil {
			return nil, err
		}
		if r == nil {
			break
		}
		rows = append(rows, r)
		// Early exit is only safe when the result is not being cached.
		if !rt.uncorrelated && earlyOut != nil && earlyOut(len(rows)) {
			break
		}
	}
	if rt.uncorrelated {
		rt.matDone = true
		rt.rows = rows
	}
	return rows, nil
}

// buildInSet prepares the O(1) lookup structures over the materialized
// rows.
func (rt *subqRuntime) buildInSet() {
	if rt.inSet != nil {
		return
	}
	rt.inSet = make(map[string]bool, len(rt.rows))
	var key []byte
	for _, r := range rt.rows {
		hasNull := false
		for _, d := range r {
			if d.IsNull() {
				hasNull = true
				break
			}
		}
		if hasNull {
			rt.inAnyNull = true
			continue
		}
		key = appendRowKey(key[:0], r)
		if !rt.inSet[string(key)] {
			rt.inSet[string(key)] = true
		}
	}
}

// evalSubq evaluates a subquery expression. Correlated subqueries run under
// tuple iteration semantics with result caching per distinct (correlation,
// left-hand) values (§2.1.1); uncorrelated subqueries are materialized once,
// and IN probes the materialization in constant time.
func (e *env) evalSubq(s *qtree.Subq, ctx *Ctx) (datum.Datum, error) {
	rt, err := e.subqRuntime(s)
	if err != nil {
		return datum.Null, err
	}

	// Left-hand side values.
	left := make(Row, len(s.Left))
	for i, le := range s.Left {
		d, err := e.evalExpr(le, ctx)
		if err != nil {
			return datum.Null, err
		}
		left[i] = d
	}

	if rt.uncorrelated {
		return e.evalUncorrelated(s, rt, ctx, left)
	}

	// Correlated: memoize by correlation + left values. The key is encoded
	// into e.key and copied to a string only on a miss, before execution
	// can reuse the buffer (nested subqueries share it).
	cacheable := true
	e.key = e.key[:0]
	for _, id := range rt.corrCols {
		d, ok := ctx.lookup(id)
		if !ok {
			cacheable = false
			break
		}
		e.key = datum.AppendKey(e.key, d)
	}
	var ck string
	if cacheable {
		e.key = appendRowKey(e.key, left)
		if v, hit := e.subqCache[s][string(e.key)]; hit {
			return v, nil
		}
		ck = string(e.key)
	}

	rows, err := e.execute(rt, ctx, earlyOutFor(s))
	if err != nil {
		return datum.Null, err
	}
	res, err := combineSubqRows(s, left, rows)
	if err != nil {
		return datum.Null, err
	}
	if cacheable {
		cache, ok := e.subqCache[s]
		if !ok {
			cache = map[string]datum.Datum{}
			e.subqCache[s] = cache
		}
		cache[ck] = res
	}
	return res, nil
}

// earlyOutFor allows EXISTS-style probes to stop at the first row.
func earlyOutFor(s *qtree.Subq) func(int) bool {
	switch s.Kind {
	case qtree.SubqExists, qtree.SubqNotExists:
		return func(n int) bool { return n >= 1 }
	}
	return nil
}

// evalUncorrelated answers the subquery from the materialized result.
func (e *env) evalUncorrelated(s *qtree.Subq, rt *subqRuntime, ctx *Ctx, left Row) (datum.Datum, error) {
	rows, err := e.execute(rt, ctx, nil)
	if err != nil {
		return datum.Null, err
	}
	switch s.Kind {
	case qtree.SubqIn, qtree.SubqNotIn:
		rt.buildInSet()
		res := e.probeIn(rt, left, rows)
		if s.Kind == qtree.SubqNotIn {
			res = res.Not()
		}
		return res.Datum(), nil
	}
	return combineSubqRows(s, left, rows)
}

// probeIn answers "left IN rows" using the hash set where precise, falling
// back to a scan when nulls make hashing imprecise.
func (e *env) probeIn(rt *subqRuntime, left Row, rows []Row) datum.TriBool {
	leftNull := false
	for _, d := range left {
		if d.IsNull() {
			leftNull = true
		}
	}
	if !leftNull {
		e.key = appendRowKey(e.key[:0], left)
		if rt.inSet[string(e.key)] {
			return datum.True
		}
	}
	if (!leftNull && !rt.inAnyNull) || len(rows) == 0 {
		return datum.False
	}
	if len(left) == 1 {
		// Single column: no exact match; a null anywhere makes it UNKNOWN.
		return datum.Unknown
	}
	// Multi-column with nulls: scan for precision.
	res := datum.False
	for _, r := range rows {
		res = res.Or(rowCmp(left, r, qtree.OpEq))
		if res == datum.True {
			break
		}
	}
	return res
}

// combineSubqRows folds the subquery result rows into the predicate value
// under SQL three-valued semantics.
func combineSubqRows(s *qtree.Subq, left Row, rows []Row) (datum.Datum, error) {
	switch s.Kind {
	case qtree.SubqExists:
		return datum.NewBool(len(rows) > 0), nil
	case qtree.SubqNotExists:
		return datum.NewBool(len(rows) == 0), nil
	case qtree.SubqScalar:
		if len(rows) == 0 {
			return datum.Null, nil
		}
		if len(rows) > 1 {
			return datum.Null, fmt.Errorf("exec: scalar subquery returned more than one row")
		}
		return rows[0][0], nil
	case qtree.SubqIn, qtree.SubqAnyCmp:
		op := s.Op
		if s.Kind == qtree.SubqIn {
			op = qtree.OpEq
		}
		res := datum.False
		for _, r := range rows {
			res = res.Or(rowCmp(left, r, op))
			if res == datum.True {
				break
			}
		}
		return res.Datum(), nil
	case qtree.SubqNotIn:
		res := datum.False
		for _, r := range rows {
			res = res.Or(rowCmp(left, r, qtree.OpEq))
			if res == datum.True {
				break
			}
		}
		return res.Not().Datum(), nil
	case qtree.SubqAllCmp:
		res := datum.True
		for _, r := range rows {
			res = res.And(rowCmp(left, r, s.Op))
			if res == datum.False {
				break
			}
		}
		return res.Datum(), nil
	}
	return datum.Null, fmt.Errorf("exec: unknown subquery kind %v", s.Kind)
}

// rowCmp compares left values with a subquery row column-wise (AND).
func rowCmp(left Row, r Row, op qtree.BinOp) datum.TriBool {
	res := datum.True
	for i := range left {
		res = res.And(cmp3(left[i], r[i], op))
		if res == datum.False {
			return datum.False
		}
	}
	return res
}

package exec

import (
	"slices"

	"repro/internal/datum"
	"repro/internal/optimizer"
	"repro/internal/qtree"
)

// leftRefCols returns the left-side columns referenced by the join's right
// subtree and conditions; their values key the semijoin/antijoin/lateral
// result caches.
func leftRefCols(n *optimizer.Join) []optimizer.ColID {
	leftSet := map[optimizer.ColID]bool{}
	for _, c := range n.L.Columns() {
		leftSet[c] = true
	}
	seen := map[optimizer.ColID]bool{}
	var out []optimizer.ColID
	addExpr := func(e qtree.Expr) {
		qtree.ExprCols(e, func(c *qtree.Col) {
			id := optimizer.ColID{From: c.From, Ord: c.Ord}
			if leftSet[id] && !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		})
	}
	for _, e := range n.On {
		addExpr(e)
	}
	for _, e := range n.EqL {
		addExpr(e)
	}
	// Right subtree expressions (index probe keys, lateral view bodies).
	optimizer.Walk(n.R, func(pn optimizer.PlanNode) { optimizer.NodeExprs(pn, addExpr) })
	return out
}

// pairRow is a join's scratch row for residual conditions: the current left
// row followed by one candidate right row. The left part is copied once per
// left row and each candidate only overwrites the right part, so checking a
// pair allocates nothing; a pair that is emitted is cloned, because callers
// keep the rows they are handed.
type pairRow struct {
	row   Row
	nLeft int
}

// setLeft starts pairs for a new left row.
func (p *pairRow) setLeft(l Row) {
	p.row = append(p.row[:0], l...)
	p.nLeft = len(l)
}

// with returns the current left row paired with r, valid until the next
// setLeft or with call.
func (p *pairRow) with(r Row) Row {
	p.row = append(p.row[:p.nLeft], r...)
	return p.row
}

// nlJoinIter is the nested-loops join for all kinds. The right side is
// materialized once per Open unless the join is lateral (correlated), in
// which case it is re-opened per left row with the left row bound as
// correlation; lateral results are cached per distinct correlation values.
// Semijoin and antijoin stop at the first match and cache their verdicts
// for duplicate left key values (§2.1.1).
type nlJoinIter struct {
	e    *env
	n    *optimizer.Join
	l, r iterator

	leftCtx Ctx
	combCtx Ctx
	pair    pairRow

	matRight   []Row // materialized right (non-lateral)
	leftRow    Row
	rightRows  []Row // right rows for the current left row
	rightPos   int
	emittedAny bool // for left/full outer: matched the current left row
	needLeft   bool

	// Full outer state: which materialized right rows ever matched, and
	// the emit cursor for the trailing unmatched-right phase.
	rightMatched []bool
	tailPos      int
	leftDone     bool

	cacheCols []optimizer.ColID
	key       []byte // cache-key scratch
	// verdictCache caches semi/anti verdicts by left key values.
	verdictCache map[string]bool
	// lateralCache caches lateral right row sets by correlation values.
	lateralCache map[string][]Row
}

func newNLJoin(e *env, n *optimizer.Join, l, r iterator) *nlJoinIter {
	return &nlJoinIter{e: e, n: n, l: l, r: r, cacheCols: leftRefCols(n),
		leftCtx: schemaCtx(n.L.Columns()), combCtx: schemaCtx(joinSchema(n))}
}

func (it *nlJoinIter) Open(outer *Ctx) error {
	it.leftCtx.parent = outer
	it.combCtx.parent = outer
	it.needLeft = true
	it.leftRow = nil
	it.leftDone = false
	it.tailPos = 0
	it.verdictCache = map[string]bool{}
	it.lateralCache = map[string][]Row{}
	if err := it.l.Open(outer); err != nil {
		return err
	}
	it.matRight = nil
	it.rightMatched = nil
	if !it.n.RLateral {
		if err := it.r.Open(outer); err != nil {
			return err
		}
		for {
			r, err := it.r.Next()
			if err != nil {
				return err
			}
			if r == nil {
				break
			}
			it.matRight = append(it.matRight, r)
		}
		if it.n.Kind == qtree.JoinFullOuter {
			it.rightMatched = make([]bool, len(it.matRight))
		}
	}
	return nil
}

// leftKey encodes the cache key for the current left row into the
// iterator's scratch buffer, valid until the next leftKey call.
func (it *nlJoinIter) leftKey() ([]byte, bool) {
	if len(it.cacheCols) == 0 {
		return nil, false
	}
	it.key = it.key[:0]
	for _, id := range it.cacheCols {
		d, ok := it.leftCtx.lookup(id)
		if !ok {
			return nil, false
		}
		it.key = datum.AppendKey(it.key, d)
	}
	return it.key, true
}

// rightForCurrentLeft returns the right rows for the current left row.
func (it *nlJoinIter) rightForCurrentLeft() ([]Row, error) {
	if !it.n.RLateral {
		return it.matRight, nil
	}
	key, cacheable := it.leftKey()
	var ks string
	if cacheable {
		if rows, ok := it.lateralCache[string(key)]; ok {
			return rows, nil
		}
		ks = string(key)
	}
	if err := it.r.Open(&it.leftCtx); err != nil {
		return nil, err
	}
	var rows []Row
	for {
		r, err := it.r.Next()
		if err != nil {
			return nil, err
		}
		if r == nil {
			break
		}
		rows = append(rows, r)
	}
	if cacheable {
		it.lateralCache[ks] = rows
	}
	return rows, nil
}

func (it *nlJoinIter) Next() (Row, error) {
	for {
		if it.leftDone {
			// Full outer tail: emit right rows that never matched, padded
			// with NULLs on the left.
			for it.tailPos < len(it.matRight) {
				i := it.tailPos
				it.tailPos++
				if it.rightMatched[i] {
					continue
				}
				nLeft := len(it.n.L.Columns())
				comb := make(Row, nLeft+len(it.matRight[i]))
				copy(comb[nLeft:], it.matRight[i])
				return comb, nil
			}
			return nil, nil
		}
		if it.needLeft {
			lr, err := it.l.Next()
			if err != nil {
				return nil, err
			}
			if lr == nil {
				if it.n.Kind == qtree.JoinFullOuter {
					it.leftDone = true
					continue
				}
				return nil, nil
			}
			it.leftRow = lr
			it.leftCtx.row = lr
			it.pair.setLeft(lr)
			it.needLeft = false
			it.emittedAny = false
			it.rightPos = 0

			switch it.n.Kind {
			case qtree.JoinSemi, qtree.JoinAnti, qtree.JoinNullAwareAnti:
				emit, err := it.evalSemiAnti()
				if err != nil {
					return nil, err
				}
				it.needLeft = true
				if emit {
					return it.leftRow, nil
				}
				continue
			default:
				rows, err := it.rightForCurrentLeft()
				if err != nil {
					return nil, err
				}
				it.rightRows = rows
			}
		}

		// Inner / left outer / full outer row-at-a-time.
		for it.rightPos < len(it.rightRows) {
			ri := it.rightPos
			rr := it.rightRows[ri]
			it.rightPos++
			it.combCtx.row = it.pair.with(rr)
			ok, err := it.e.evalPreds(it.n.On, &it.combCtx)
			if err != nil {
				return nil, err
			}
			if ok {
				it.emittedAny = true
				if it.rightMatched != nil {
					it.rightMatched[ri] = true
				}
				return slices.Clone(it.combCtx.row), nil
			}
		}
		// Right exhausted for this left row.
		if (it.n.Kind == qtree.JoinLeftOuter || it.n.Kind == qtree.JoinFullOuter) && !it.emittedAny {
			comb := make(Row, len(it.leftRow)+len(it.n.R.Columns()))
			copy(comb, it.leftRow)
			it.needLeft = true
			return comb, nil
		}
		it.needLeft = true
	}
}

// evalSemiAnti computes the semijoin/antijoin verdict for the current left
// row with stop-at-first-match and verdict caching.
func (it *nlJoinIter) evalSemiAnti() (bool, error) {
	key, cacheable := it.leftKey()
	var ks string
	if cacheable {
		if v, ok := it.verdictCache[string(key)]; ok {
			return v, nil
		}
		ks = string(key)
	}
	rows, err := it.rightForCurrentLeft()
	if err != nil {
		return false, err
	}
	verdict := false
	switch it.n.Kind {
	case qtree.JoinSemi:
		for _, rr := range rows {
			ok, err := it.evalOn(rr)
			if err != nil {
				return false, err
			}
			if ok == datum.True {
				verdict = true
				break // stop at first match
			}
		}
	case qtree.JoinAnti:
		verdict = true
		for _, rr := range rows {
			ok, err := it.evalOn(rr)
			if err != nil {
				return false, err
			}
			if ok == datum.True {
				verdict = false
				break
			}
		}
	case qtree.JoinNullAwareAnti:
		// NOT IN semantics: emit only if the condition is strictly FALSE
		// for every right row (an UNKNOWN anywhere suppresses the row);
		// the empty right side emits.
		verdict = true
		for _, rr := range rows {
			ok, err := it.evalOn(rr)
			if err != nil {
				return false, err
			}
			if ok != datum.False {
				verdict = false
				break
			}
		}
	}
	if cacheable {
		it.verdictCache[ks] = verdict
	}
	return verdict, nil
}

// evalOn evaluates the residual conditions for the current left row paired
// with rr, on the iterator's scratch row.
func (it *nlJoinIter) evalOn(rr Row) (datum.TriBool, error) {
	it.combCtx.row = it.pair.with(rr)
	res := datum.True
	for _, p := range it.n.On {
		t, err := it.e.evalBool(p, &it.combCtx)
		if err != nil {
			return datum.Unknown, err
		}
		res = res.And(t)
		if res == datum.False {
			return datum.False, nil
		}
	}
	return res, nil
}

func (it *nlJoinIter) Close() error {
	it.l.Close()
	return it.r.Close()
}

// memBytes approximates the materialized right side plus the lateral and
// semi/anti verdict caches.
func (it *nlJoinIter) memBytes() int64 {
	b := rowsBytes(it.matRight)
	for k, rows := range it.lateralCache {
		b += 48 + int64(len(k)) + rowsBytes(rows)
	}
	for k := range it.verdictCache {
		b += 48 + int64(len(k)) + 1
	}
	return b
}

// hashJoinIter builds a hash table on the right input keyed by EqR and
// probes with left rows keyed by EqL.
type hashJoinIter struct {
	e    *env
	n    *optimizer.Join
	l, r iterator

	leftCtx  Ctx
	rightCtx Ctx
	combCtx  Ctx
	pair     pairRow

	table        keyTable
	key          []byte // join-key scratch
	buildRows    []Row
	buildMatched []bool
	buildNulls   bool

	leftRow   Row
	bucket    []int
	bucketPos int
	needLeft  bool
	matched   bool
	leftDone  bool
	tailPos   int
}

func newHashJoin(e *env, n *optimizer.Join, l, r iterator) *hashJoinIter {
	return &hashJoinIter{e: e, n: n, l: l, r: r, leftCtx: schemaCtx(n.L.Columns()),
		rightCtx: schemaCtx(n.R.Columns()), combCtx: schemaCtx(joinSchema(n))}
}

func (it *hashJoinIter) Open(outer *Ctx) error {
	it.leftCtx.parent = outer
	it.rightCtx.parent = outer
	it.combCtx.parent = outer
	it.table = keyTable{}
	it.buildRows = nil
	it.buildMatched = nil
	it.buildNulls = false
	it.needLeft = true
	it.leftDone = false
	it.tailPos = 0

	if err := it.r.Open(outer); err != nil {
		return err
	}
	for {
		rr, err := it.r.Next()
		if err != nil {
			return err
		}
		if rr == nil {
			break
		}
		idx := len(it.buildRows)
		it.buildRows = append(it.buildRows, rr)
		it.rightCtx.row = rr
		hasNull, err := it.evalKey(it.n.EqR, &it.rightCtx)
		if err != nil {
			return err
		}
		if hasNull {
			// Null keys never match under plain equality; under a full
			// outer join the row still surfaces in the unmatched tail.
			it.buildNulls = true
			continue
		}
		bucket := it.table.slot(it.key)
		*bucket = append(*bucket, idx)
	}
	if it.n.Kind == qtree.JoinFullOuter {
		it.buildMatched = make([]bool, len(it.buildRows))
	}
	return it.l.Open(outer)
}

// evalKey encodes the join key of exprs under ctx into it.key and reports
// whether a non-null-safe key part is NULL.
func (it *hashJoinIter) evalKey(exprs []qtree.Expr, ctx *Ctx) (bool, error) {
	it.key = it.key[:0]
	hasNull := false
	for i, e := range exprs {
		d, err := it.e.evalExpr(e, ctx)
		if err != nil {
			return false, err
		}
		if d.IsNull() && !it.n.NullSafe(i) {
			hasNull = true
		}
		it.key = datum.AppendKey(it.key, d)
	}
	return hasNull, nil
}

func (it *hashJoinIter) Next() (Row, error) {
	for {
		if it.leftDone {
			// Full outer tail: unmatched build rows, left side padded.
			nLeft := len(it.n.L.Columns())
			for it.tailPos < len(it.buildRows) {
				i := it.tailPos
				it.tailPos++
				if it.buildMatched[i] {
					continue
				}
				comb := make(Row, nLeft+len(it.buildRows[i]))
				copy(comb[nLeft:], it.buildRows[i])
				return comb, nil
			}
			return nil, nil
		}
		if it.needLeft {
			lr, err := it.l.Next()
			if err != nil {
				return nil, err
			}
			if lr == nil {
				if it.n.Kind == qtree.JoinFullOuter {
					it.leftDone = true
					continue
				}
				return nil, nil
			}
			it.leftRow = lr
			it.leftCtx.row = lr
			it.pair.setLeft(lr)
			it.matched = false
			it.bucketPos = 0

			hasNull, err := it.evalKey(it.n.EqL, &it.leftCtx)
			if err != nil {
				return nil, err
			}
			switch it.n.Kind {
			case qtree.JoinSemi:
				if hasNull {
					continue
				}
				ok, err := it.anyMatch()
				if err != nil {
					return nil, err
				}
				if ok {
					return it.leftRow, nil
				}
				continue
			case qtree.JoinAnti:
				if hasNull {
					// Unknown comparison: NOT EXISTS-style anti keeps row.
					return it.leftRow, nil
				}
				ok, err := it.anyMatch()
				if err != nil {
					return nil, err
				}
				if !ok {
					return it.leftRow, nil
				}
				continue
			case qtree.JoinNullAwareAnti:
				if len(it.buildRows) == 0 {
					return it.leftRow, nil // NOT IN over empty set is TRUE
				}
				if it.buildNulls || hasNull {
					continue // UNKNOWN everywhere: row suppressed
				}
				ok, err := it.anyMatch()
				if err != nil {
					return nil, err
				}
				if !ok {
					return it.leftRow, nil
				}
				continue
			default:
				if hasNull {
					it.bucket = nil
				} else {
					it.bucket = it.table.get(it.key)
				}
			}
			it.needLeft = false
		}

		for it.bucketPos < len(it.bucket) {
			ri := it.bucket[it.bucketPos]
			rr := it.buildRows[ri]
			it.bucketPos++
			it.combCtx.row = it.pair.with(rr)
			ok, err := it.e.evalPreds(it.n.On, &it.combCtx)
			if err != nil {
				return nil, err
			}
			if ok {
				it.matched = true
				if it.buildMatched != nil {
					it.buildMatched[ri] = true
				}
				return slices.Clone(it.combCtx.row), nil
			}
		}
		if (it.n.Kind == qtree.JoinLeftOuter || it.n.Kind == qtree.JoinFullOuter) && !it.matched {
			comb := make(Row, len(it.leftRow)+len(it.n.R.Columns()))
			copy(comb, it.leftRow)
			it.needLeft = true
			return comb, nil
		}
		it.needLeft = true
	}
}

// anyMatch reports whether any build row in the bucket of the probe key
// (it.key) passes the residual conditions.
func (it *hashJoinIter) anyMatch() (bool, error) {
	for _, ri := range it.table.get(it.key) {
		it.combCtx.row = it.pair.with(it.buildRows[ri])
		ok, err := it.e.evalPreds(it.n.On, &it.combCtx)
		if err != nil {
			return false, err
		}
		if ok {
			return true, nil
		}
	}
	return false, nil
}

func (it *hashJoinIter) Close() error {
	it.l.Close()
	return it.r.Close()
}

// memBytes approximates the build side: rows plus hash-table buckets.
func (it *hashJoinIter) memBytes() int64 {
	return rowsBytes(it.buildRows) + it.table.memBytes()
}

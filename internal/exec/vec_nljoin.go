package exec

import (
	"fmt"
	"slices"

	"repro/internal/datum"
	"repro/internal/optimizer"
	"repro/internal/qtree"
	"repro/internal/storage"
)

// batchNLJoinIter is the vectorized nested-loops join for the dominant
// lateral shape: an index probe on the right re-opened per left row. The
// left side runs batched; the probe inlines the index lookup and filter so
// matching rows are copied from table storage straight into the output
// batch, skipping the row engine's per-row Row allocation and the
// materialized right-row cache. Probe results (post-filter rowids) are
// cached per distinct correlation value exactly like nlJoinIter's lateral
// cache, and the inlined IndexScan's EXPLAIN ANALYZE counters are kept
// by hand with the row engine's per-open accounting (a cache hit performs
// no open and counts nothing).
type batchNLJoinIter struct {
	e   *env
	n   *optimizer.Join
	l   batchIterator
	rn  *optimizer.IndexScan
	tbl *storage.Table

	leftCtx Ctx
	combCtx Ctx
	comb    Row // scratch: left row ++ right row; prefix doubles as leftCtx.row
	nLeft   int
	nRight  int
	// leftLive and rightLive are the live slots of the two inputs: the
	// only slots copied into comb and into the output batch.
	leftLive, rightLive []int

	// The probe filter runs batch-wise over cand, a candidate batch that
	// carries only the right-side columns rn.Filter reads (the scan's first
	// live slots): candSlots[j] is the right-schema slot of cand column j,
	// and candBC resolves the filter's columns against that narrow schema,
	// with leftCtx as outer.
	candSlots []int
	candBC    *batchCtx
	cand      Batch

	cacheCols []optimizer.ColID
	cache     map[string][]int32
	key       []byte // lateral-cache key scratch
	cacheMem  int64

	// Probe continuation state, mirroring batchHashJoinIter.
	cur     *Batch
	k       int
	inRow   bool
	rowids  []int32
	pos     int
	matched bool
	done    bool
	out     Batch
}

// canBatchNLJoin reports whether the join runs on the vectorized
// nested-loops path: inner or left-outer kind with a lateral bare
// IndexScan right side. Other kinds (semi-family verdict caching, full
// outer right tails) and composite right subtrees stay on the row bridge.
func canBatchNLJoin(n *optimizer.Join) bool {
	if n.Kind != qtree.JoinInner && n.Kind != qtree.JoinLeftOuter {
		return false
	}
	if !n.RLateral {
		return false
	}
	_, ok := n.R.(*optimizer.IndexScan)
	return ok
}

func newBatchNLJoin(e *env, n *optimizer.Join, l batchIterator) (*batchNLJoinIter, error) {
	rn, ok := n.R.(*optimizer.IndexScan)
	if !ok {
		return nil, fmt.Errorf("exec: batch NL join requires an IndexScan right side, got %T", n.R)
	}
	tbl := e.table(rn.Table.Name)
	if tbl == nil {
		return nil, fmt.Errorf("exec: table %s has no storage", rn.Table.Name)
	}
	if e.analyze != nil {
		// The row build registers every node's counters at build time, so
		// an unprobed inner side still reports a zeroed entry; match that.
		e.opStats(rn)
	}
	nLeft, nRight := len(n.L.Columns()), len(n.R.Columns())
	it := &batchNLJoinIter{e: e, n: n, l: l, rn: rn, tbl: tbl, cacheCols: leftRefCols(n),
		leftCtx: schemaCtx(n.L.Columns()), combCtx: schemaCtx(joinSchema(n)),
		comb: make(Row, nLeft+nRight), nLeft: nLeft, nRight: nRight,
		leftLive: liveSlots(n.L), rightLive: liveSlots(rn)}
	if poisonDead {
		poison(it.comb)
	}
	it.out.onlyLive(liveSlots(n))
	it.combCtx.row = it.comb
	it.leftCtx.row = it.comb[:nLeft]
	if len(rn.Filter) > 0 {
		rcols := rn.Columns()
		it.candSlots, _ = scanSlots(rn)
		schema := make([]optimizer.ColID, len(it.candSlots))
		for j, slot := range it.candSlots {
			schema[j] = rcols[slot]
		}
		it.candBC = newBatchCtx(e, schema)
		it.candBC.bind(&it.leftCtx)
	}
	return it, nil
}

func (it *batchNLJoinIter) Open(outer *Ctx) error {
	it.leftCtx.parent = outer
	it.combCtx.parent = outer
	it.cache = map[string][]int32{}
	it.cacheMem = 0
	it.cur = nil
	it.k = 0
	it.inRow = false
	it.done = false
	return it.l.Open(outer)
}

// leftKey encodes the lateral-cache key for the current left row
// (leftCtx.row must be bound) into it.key, with nlJoinIter.leftKey's
// cacheability rule.
func (it *batchNLJoinIter) leftKey() bool {
	if len(it.cacheCols) == 0 {
		return false
	}
	it.key = it.key[:0]
	for _, id := range it.cacheCols {
		d, ok := it.leftCtx.lookup(id)
		if !ok {
			return false
		}
		it.key = datum.AppendKey(it.key, d)
	}
	return true
}

// probe runs one index lookup for the current left row and filters the
// candidates, charging the inlined IndexScan node the same opens/nexts/rows
// the row engine's materializing drain would.
func (it *batchNLJoinIter) probe() ([]int32, error) {
	var st *OpStats
	if it.e.analyze != nil {
		st = it.e.opStats(it.rn)
		st.Opens++
	}
	match, err := indexMatches(it.e, it.rn, it.tbl, &it.leftCtx)
	if err != nil {
		return nil, err
	}
	if len(it.rn.Filter) > 0 && len(match) > 0 {
		// Filter the candidates in chunks of the batch cap: gather the
		// columns the filter reads (a slot past the table row is the
		// rowid), refine the chunk's selection through the conjuncts, and
		// keep the surviving rowids. Conjunct k runs over the survivors of
		// conjunct k-1: the same (row, conjunct) evaluations as the row
		// engine's per-row short-circuit.
		var kept []int32
		for rest := match; len(rest) > 0; {
			chunk := rest[:min(len(rest), it.e.batchSize)]
			rest = rest[len(chunk):]
			it.cand.reset(len(it.candSlots), len(chunk))
			for i, rid := range chunk {
				src := it.tbl.Rows[rid]
				for j, slot := range it.candSlots {
					it.cand.Cols[j][i] = rowSlot(src, slot, int(rid))
				}
			}
			it.cand.N = len(chunk)
			if err := it.e.evalPredsBatch(it.rn.Filter, &it.cand, it.candBC); err != nil {
				return nil, err
			}
			kept = slices.Grow(kept, it.cand.Rows())
			for k := 0; k < it.cand.Rows(); k++ {
				kept = append(kept, chunk[it.cand.Live(k)])
			}
		}
		match = kept
	}
	if st != nil {
		// One Next per returned row plus the end-of-input call.
		st.Nexts += int64(len(match)) + 1
		st.Rows += int64(len(match))
	}
	return match, nil
}

// rightFor returns the post-filter rowids for the current left row, probing
// on a lateral-cache miss.
func (it *batchNLJoinIter) rightFor() ([]int32, error) {
	cacheable := it.leftKey()
	if cacheable {
		if rowids, ok := it.cache[string(it.key)]; ok {
			return rowids, nil
		}
	}
	rowids, err := it.probe()
	if err != nil {
		return nil, err
	}
	if cacheable {
		it.cache[string(it.key)] = rowids
		it.cacheMem += 48 + int64(len(it.key)) + 4*int64(len(rowids))
	}
	return rowids, nil
}

// onMatch evaluates the residual On predicates for the current left row
// combined with build row rid.
func (it *batchNLJoinIter) onMatch(rid int32) (bool, error) {
	if len(it.n.On) == 0 {
		return true, nil
	}
	src := it.tbl.Rows[rid]
	for _, c := range it.rightLive {
		it.comb[it.nLeft+c] = rowSlot(src, c, int(rid))
	}
	return it.e.evalPreds(it.n.On, &it.combCtx)
}

// emit appends the current left row combined with right row rid, live
// slots only.
func (it *batchNLJoinIter) emit(rid int32) {
	n := it.out.N
	for _, c := range it.leftLive {
		it.out.Cols[c][n] = it.comb[c]
	}
	src := it.tbl.Rows[rid]
	for _, c := range it.rightLive {
		it.out.Cols[it.nLeft+c][n] = rowSlot(src, c, int(rid))
	}
	it.out.N++
}

// emitLeftPad appends the current left row padded with right NULLs.
func (it *batchNLJoinIter) emitLeftPad() {
	n := it.out.N
	for _, c := range it.leftLive {
		it.out.Cols[c][n] = it.comb[c]
	}
	for _, c := range it.rightLive {
		it.out.Cols[it.nLeft+c][n] = datum.Null
	}
	it.out.N++
}

func (it *batchNLJoinIter) NextBatch() (*Batch, error) {
	if err := it.e.checkCancelBatch(); err != nil {
		return nil, err
	}
	if it.done {
		return nil, nil
	}
	outerPad := it.n.Kind == qtree.JoinLeftOuter
	fill := it.out.grow(it.nLeft+it.nRight, it.e.batchSize)
	for {
		if it.out.N == fill {
			return &it.out, nil
		}
		if it.inRow {
			for it.pos < len(it.rowids) && it.out.N < fill {
				rid := it.rowids[it.pos]
				it.pos++
				ok, err := it.onMatch(rid)
				if err != nil {
					return nil, err
				}
				if ok {
					it.matched = true
					it.emit(rid)
				}
			}
			if it.pos < len(it.rowids) {
				return &it.out, nil // output full mid-probe; resume here
			}
			if outerPad && !it.matched {
				if it.out.N == fill {
					return &it.out, nil // resume with the padding next call
				}
				it.emitLeftPad()
			}
			it.inRow = false
			continue
		}
		if it.cur == nil || it.k >= it.cur.Rows() {
			b, err := it.l.NextBatch()
			if err != nil {
				return nil, err
			}
			if b == nil {
				it.done = true
				if it.out.N > 0 {
					return &it.out, nil
				}
				return nil, nil
			}
			it.cur = b
			it.k = 0
			continue
		}
		r := it.cur.Live(it.k)
		it.k++
		for _, c := range it.leftLive {
			it.comb[c] = it.cur.Cols[c][r]
		}
		rowids, err := it.rightFor()
		if err != nil {
			return nil, err
		}
		it.rowids = rowids
		it.pos = 0
		it.matched = false
		it.inRow = true
	}
}

func (it *batchNLJoinIter) Close() error { return it.l.Close() }

// memBytes reports the lateral cache footprint.
func (it *batchNLJoinIter) memBytes() int64 { return it.cacheMem }

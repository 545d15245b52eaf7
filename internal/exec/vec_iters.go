package exec

import (
	"fmt"
	"sort"

	"repro/internal/datum"
	"repro/internal/optimizer"
	"repro/internal/storage"
)

// This file holds the vectorized counterparts of the row operators in
// iters.go. Each operator produces column-oriented batches (batch.go) and
// evaluates its expressions with the batched evaluator (exprvec.go);
// predicates refine the batch's selection vector instead of copying
// columns. The NextBatch contract: nil at end of input, never an empty
// batch, and the returned batch is valid only until the next call.

// batchSeqScanIter scans a heap table batch-wise with late
// materialization: it fills the slots its filter reads (the rowid column is
// the slot past the table's columns), refines the selection vector with the
// filter, and only then fills the remaining live slots, for the surviving
// rows alone. Dead slots are never filled.
type batchSeqScanIter struct {
	e           *env
	n           *optimizer.SeqScan
	tbl         *storage.Table
	first, late []int
	pos         int
	width       int
	rids        []int // table row of each physical row, kept when late is set
	bc          *batchCtx
	b           Batch
}

func newBatchSeqScan(e *env, n *optimizer.SeqScan) *batchSeqScanIter {
	it := &batchSeqScanIter{e: e, n: n, tbl: e.table(n.Table.Name), bc: newBatchCtx(e, n.Columns())}
	it.first, it.late = scanSlots(n)
	it.b.onlyLive(liveSlots(n))
	return it
}

func (it *batchSeqScanIter) Open(outer *Ctx) error {
	if it.tbl == nil {
		return fmt.Errorf("exec: table %s has no storage", it.n.Table.Name)
	}
	it.pos = 0
	it.width = len(it.n.Columns())
	it.bc.bind(outer)
	return nil
}

func (it *batchSeqScanIter) NextBatch() (*Batch, error) {
	for {
		if err := it.e.checkCancelBatch(); err != nil {
			return nil, err
		}
		if it.pos >= len(it.tbl.Rows) {
			return nil, nil
		}
		fill := it.b.grow(it.width, it.e.batchSize)
		if len(it.late) > 0 && len(it.rids) < fill {
			it.rids = make([]int, fill)
		}
		for it.b.N < fill && it.pos < len(it.tbl.Rows) {
			if !it.tbl.Visible(it.pos) {
				it.pos++
				continue
			}
			it.b.fillSlots(it.first, it.b.N, it.tbl.Rows[it.pos], it.pos)
			if len(it.late) > 0 {
				it.rids[it.b.N] = it.pos
			}
			it.pos++
			it.b.N++
		}
		if it.b.N == 0 {
			continue // an all-dead tail; loop to the end-of-input return
		}
		if err := it.e.evalPredsBatch(it.n.Filter, &it.b, it.bc); err != nil {
			return nil, err
		}
		if it.b.Rows() == 0 {
			continue // filter rejected the whole batch; keep scanning
		}
		if len(it.late) > 0 {
			for k := 0; k < it.b.Rows(); k++ {
				r := it.b.Live(k)
				it.b.fillSlots(it.late, r, it.tbl.Rows[it.rids[r]], it.rids[r])
			}
		}
		it.e.noteBatch(&it.b)
		return &it.b, nil
	}
}

func (it *batchSeqScanIter) Close() error { return nil }

// batchIndexScanIter probes or range-scans an index batch-wise, with the
// sequential scan's late materialization.
type batchIndexScanIter struct {
	e           *env
	n           *optimizer.IndexScan
	tbl         *storage.Table
	first, late []int
	match       []int32
	pos         int
	width       int
	bc          *batchCtx
	b           Batch
}

func newBatchIndexScan(e *env, n *optimizer.IndexScan) (*batchIndexScanIter, error) {
	tbl := e.table(n.Table.Name)
	if tbl == nil {
		return nil, fmt.Errorf("exec: table %s has no storage", n.Table.Name)
	}
	it := &batchIndexScanIter{e: e, n: n, tbl: tbl, bc: newBatchCtx(e, n.Columns())}
	it.first, it.late = scanSlots(n)
	it.b.onlyLive(liveSlots(n))
	return it, nil
}

func (it *batchIndexScanIter) Open(outer *Ctx) error {
	it.pos = 0
	it.width = len(it.n.Columns())
	it.bc.bind(outer)
	match, err := indexMatches(it.e, it.n, it.tbl, outer)
	if err != nil {
		return err
	}
	it.match = match
	return nil
}

func (it *batchIndexScanIter) NextBatch() (*Batch, error) {
	for {
		if err := it.e.checkCancelBatch(); err != nil {
			return nil, err
		}
		if it.pos >= len(it.match) {
			return nil, nil
		}
		fill := it.b.grow(it.width, it.e.batchSize)
		// Physical row r of this batch is match[base+r].
		base := it.pos
		for it.b.N < fill && it.pos < len(it.match) {
			rowid := int(it.match[it.pos])
			it.b.fillSlots(it.first, it.b.N, it.tbl.Rows[rowid], rowid)
			it.pos++
			it.b.N++
		}
		if err := it.e.evalPredsBatch(it.n.Filter, &it.b, it.bc); err != nil {
			return nil, err
		}
		if it.b.Rows() == 0 {
			continue
		}
		if len(it.late) > 0 {
			for k := 0; k < it.b.Rows(); k++ {
				r := it.b.Live(k)
				rowid := int(it.match[base+r])
				it.b.fillSlots(it.late, r, it.tbl.Rows[rowid], rowid)
			}
		}
		it.e.noteBatch(&it.b)
		return &it.b, nil
	}
}

func (it *batchIndexScanIter) Close() error { return nil }

// batchFilterIter refines each child batch's selection vector through the
// filter predicates, forwarding only batches with surviving rows.
type batchFilterIter struct {
	e     *env
	n     *optimizer.Filter
	child batchIterator
	bc    *batchCtx
}

func newBatchFilter(e *env, n *optimizer.Filter, child batchIterator) *batchFilterIter {
	return &batchFilterIter{e: e, n: n, child: child, bc: newBatchCtx(e, n.Child.Columns())}
}

func (it *batchFilterIter) Open(outer *Ctx) error {
	it.bc.bind(outer)
	return it.child.Open(outer)
}

func (it *batchFilterIter) NextBatch() (*Batch, error) {
	for {
		b, err := it.child.NextBatch()
		if err != nil || b == nil {
			return nil, err
		}
		if err := it.e.evalPredsBatch(it.n.Preds, b, it.bc); err != nil {
			return nil, err
		}
		if b.Rows() > 0 {
			return b, nil
		}
	}
}

func (it *batchFilterIter) Close() error { return it.child.Close() }

// batchProjectIter evaluates its live output expressions column-wise into
// its own batch, carrying the child's selection vector through unchanged.
type batchProjectIter struct {
	e     *env
	n     *optimizer.Project
	child batchIterator
	live  []int
	bc    *batchCtx
	out   Batch
}

func newBatchProject(e *env, n *optimizer.Project, child batchIterator) *batchProjectIter {
	it := &batchProjectIter{e: e, n: n, child: child, live: liveSlots(n), bc: newBatchCtx(e, n.Child.Columns())}
	it.out.onlyLive(it.live)
	return it
}

func (it *batchProjectIter) Open(outer *Ctx) error {
	it.bc.bind(outer)
	return it.child.Open(outer)
}

func (it *batchProjectIter) NextBatch() (*Batch, error) {
	b, err := it.child.NextBatch()
	if err != nil || b == nil {
		return nil, err
	}
	it.out.reset(len(it.n.Exprs), b.N)
	for _, i := range it.live {
		if err := it.e.evalExprBatch(it.n.Exprs[i], b, b.Sel, it.bc, it.out.Cols[i]); err != nil {
			return nil, err
		}
	}
	it.out.N = b.N
	it.out.Sel = b.Sel
	return &it.out, nil
}

func (it *batchProjectIter) Close() error { return it.child.Close() }

// batchSortIter materializes its input (copying rows out of the child's
// reused batches, one slab per batch), sorts, and re-emits the rows in
// fresh batches.
type batchSortIter struct {
	e     *env
	n     *optimizer.Sort
	child batchIterator
	bc    *batchCtx
	rows  []Row
	pos   int
	out   Batch
}

func newBatchSort(e *env, n *optimizer.Sort, child batchIterator) *batchSortIter {
	return &batchSortIter{e: e, n: n, child: child, bc: newBatchCtx(e, n.Child.Columns())}
}

func (it *batchSortIter) Open(outer *Ctx) error {
	if err := it.child.Open(outer); err != nil {
		return err
	}
	it.rows = nil
	it.pos = 0
	bc := it.bc
	bc.bind(outer)
	var keys []Row
	keyVecs := make([][]datum.Datum, len(it.n.Keys))
	for {
		b, err := it.child.NextBatch()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		for i, k := range it.n.Keys {
			keyVecs[i] = bc.getVec(b.N)
			if err := it.e.evalExprBatch(k, b, b.Sel, bc, keyVecs[i]); err != nil {
				return err
			}
		}
		it.rows = b.appendRows(it.rows)
		nk := len(it.n.Keys)
		kslab := make([]datum.Datum, b.Rows()*nk)
		for k := 0; k < b.Rows(); k++ {
			r := b.Live(k)
			kr := Row(kslab[k*nk : (k+1)*nk : (k+1)*nk])
			for i := range kr {
				kr[i] = keyVecs[i][r]
			}
			keys = append(keys, kr)
		}
		for i := range keyVecs {
			bc.putVec(keyVecs[i])
		}
	}
	sortRowsByKeys(it.n, it.rows, keys)
	return nil
}

// sortRowsByKeys stably sorts rows by their precomputed key rows (permuted
// through an index indirection so rows and keys stay aligned).
func sortRowsByKeys(n *optimizer.Sort, rows []Row, keys []Row) {
	idx := make([]int, len(rows))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ka, kb := keys[idx[a]], keys[idx[b]]
		for i := range n.Keys {
			c := nullsFirstCompare(ka[i], kb[i])
			if n.Desc[i] {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
	permuted := make([]Row, len(rows))
	for i, j := range idx {
		permuted[i] = rows[j]
	}
	copy(rows, permuted)
}

func (it *batchSortIter) NextBatch() (*Batch, error) {
	if it.pos >= len(it.rows) {
		return nil, nil
	}
	width := len(it.n.Child.Columns())
	fill := it.out.grow(width, it.e.batchSize)
	for it.out.N < fill && it.pos < len(it.rows) {
		it.out.appendRow(it.rows[it.pos])
		it.pos++
	}
	return &it.out, nil
}

func (it *batchSortIter) Close() error { return it.child.Close() }

// memBytes approximates the sorted materialization (same formula as the
// row engine's sortIter, so EXPLAIN ANALYZE mem= stays comparable).
func (it *batchSortIter) memBytes() int64 { return rowsBytes(it.rows) }

// batchLimitIter passes batches through until the row budget is spent,
// cutting the final batch mid-way by truncating its selection.
type batchLimitIter struct {
	child batchIterator
	n     int64
	seen  int64
}

func (it *batchLimitIter) Open(outer *Ctx) error {
	it.seen = 0
	return it.child.Open(outer)
}

func (it *batchLimitIter) NextBatch() (*Batch, error) {
	if it.seen >= it.n {
		return nil, nil
	}
	b, err := it.child.NextBatch()
	if err != nil || b == nil {
		return nil, err
	}
	remain := it.n - it.seen
	if int64(b.Rows()) <= remain {
		it.seen += int64(b.Rows())
		return b, nil
	}
	// ROWNUM cuts mid-batch: keep the first remain selected rows.
	if b.Sel != nil {
		b.Sel = b.Sel[:remain]
	} else {
		b.N = int(remain)
	}
	it.seen = it.n
	return b, nil
}

func (it *batchLimitIter) Close() error { return it.child.Close() }

// batchDistinctIter streams batches through, keeping only first
// occurrences by refining the selection vector against the seen-key set.
type batchDistinctIter struct {
	e       *env
	child   batchIterator
	seen    map[string]bool
	scratch Row
	key     []byte
	sel     []int
}

func newBatchDistinct(e *env, child batchIterator) *batchDistinctIter {
	return &batchDistinctIter{e: e, child: child}
}

func (it *batchDistinctIter) Open(outer *Ctx) error {
	it.seen = map[string]bool{}
	return it.child.Open(outer)
}

func (it *batchDistinctIter) NextBatch() (*Batch, error) {
	for {
		b, err := it.child.NextBatch()
		if err != nil || b == nil {
			return nil, err
		}
		if cap(it.scratch) < len(b.Cols) {
			it.scratch = make(Row, len(b.Cols))
		}
		it.scratch = it.scratch[:len(b.Cols)]
		it.sel = it.sel[:0]
		for k := 0; k < b.Rows(); k++ {
			r := b.Live(k)
			b.gather(r, it.scratch)
			it.key = appendRowKey(it.key[:0], it.scratch)
			if !it.seen[string(it.key)] {
				it.seen[string(it.key)] = true
				it.sel = append(it.sel, r)
			}
		}
		if len(it.sel) == 0 {
			continue
		}
		b.Sel = it.sel
		return b, nil
	}
}

func (it *batchDistinctIter) Close() error { return it.child.Close() }

// memBytes approximates the duplicate-elimination key set (same formula as
// the row engine's distinctIter).
func (it *batchDistinctIter) memBytes() int64 {
	var b int64
	for k := range it.seen {
		b += 48 + int64(len(k))
	}
	return b
}

package exec

import (
	"repro/internal/datum"
	"repro/internal/obsv"
	"repro/internal/optimizer"
	"repro/internal/storage"
)

// DefaultBatchSize caps the rows a batch operator carries per NextBatch
// call. 1024 keeps a batch's column vectors comfortably inside the L2 cache
// for the schema widths this engine sees while amortizing the per-call
// overhead (interface dispatch, context polling, instrumentation) over a
// thousand rows. It is a cap, not an up-front allocation: see Batch.grow.
const DefaultBatchSize = 1024

// A batch starts at minBatchRows and multiplies by batchGrowth each time an
// operator fills it, so an execution allocates (and zeroes) vectors in
// proportion to the rows it touches: a one-row index lookup pays for 16
// slots per column, a 40k-row scan reaches the cap after three small
// batches (16, 64, 256).
const (
	minBatchRows = 16
	batchGrowth  = 4
)

// Options configures one execution.
type Options struct {
	// RowExec selects the legacy row-at-a-time volcano engine instead of
	// the vectorized batch engine. The two engines are semantically
	// identical (TestDifferentialVectorized holds them to that); the row
	// path is kept as the differential baseline and as the compatibility
	// path for operators that have not been vectorized.
	RowExec bool
	// BatchSize overrides DefaultBatchSize as the batch-capacity cap (0 =
	// default). Tests use sizes around 1, the growth steps and 1024 to
	// exercise batch-boundary behavior.
	BatchSize int
	// Metrics, when non-nil, receives the engine's batch counters after
	// the run: exec.batch.rows (logical rows carried by batches),
	// exec.batch.batches (batches produced) and the exec.batch.selectivity
	// histogram (per-batch percentage of rows surviving a filter).
	Metrics *obsv.Registry
	// Snap pins the execution to an existing storage snapshot (e.g. a DML
	// statement reading and writing under one view). When nil, the run
	// acquires its own snapshot, so every statement executes against a
	// consistent multi-table view regardless.
	Snap *storage.Snapshot
}

// Batch is a column-oriented slice of rows flowing between batch operators:
// Cols[c][r] is column c of physical row r, with N physical rows. Sel, when
// non-nil, is the selection vector — the ascending physical indices of the
// rows that are logically present; a nil Sel means all N rows are live.
// Filters refine Sel instead of compacting the columns, so a predicate
// costs one index vector, not a copy of every column.
//
// Ownership: a batch returned by NextBatch is valid only until the next
// NextBatch or Close call on the same iterator. Operators reuse their
// output batch across calls, so consumers that buffer rows must copy them
// out (Batch.appendRows does).
type Batch struct {
	Cols [][]datum.Datum
	Sel  []int
	N    int
	// size is the capacity grow last handed out. It lives on the batch, not
	// on the execution, so an operator that is re-opened (a join's inner
	// side, a correlated subplan) keeps the capacity it has earned.
	size int
	// live, once pruned is set (see onlyLive), lists the only columns
	// reset gives a vector: a dead column's vector stays nil.
	live   []int
	pruned bool
}

// Rows is the logical row count (selected rows).
func (b *Batch) Rows() int {
	if b.Sel != nil {
		return len(b.Sel)
	}
	return b.N
}

// Live returns the physical index of the k-th live row.
func (b *Batch) Live(k int) int {
	if b.Sel != nil {
		return b.Sel[k]
	}
	return k
}

// appendRows appends copies of the batch's live rows to rows and returns
// the extended slice. The copies are cut from one backing slab, so a batch
// costs one allocation instead of one per row; they are safe to keep past
// the batch's lifetime (a kept row keeps its slab alive).
func (b *Batch) appendRows(rows []Row) []Row {
	n, w := b.Rows(), len(b.Cols)
	slab := make([]datum.Datum, n*w)
	for k := 0; k < n; k++ {
		row := Row(slab[k*w : (k+1)*w : (k+1)*w])
		b.gather(b.Live(k), row)
		rows = append(rows, row)
	}
	return rows
}

// gather copies physical row r into buf (len(buf) == len(b.Cols)). A dead
// column (no vector) leaves its buf slot as it was.
func (b *Batch) gather(r int, buf Row) {
	for c, col := range b.Cols {
		if col != nil {
			buf[c] = col[r]
		}
	}
}

// onlyLive restricts the batch to the given columns: reset allocates no
// vector for the others, and an operator fills only these.
func (b *Batch) onlyLive(slots []int) {
	b.live, b.pruned = slots, true
}

// reset prepares the batch to carry up to capacity physical rows of the
// given width, reusing the column vectors from previous calls. A row the
// operator does not fill keeps whatever the previous batch left in it.
func (b *Batch) reset(width, capacity int) {
	if len(b.Cols) != width {
		b.Cols = make([][]datum.Datum, width)
	}
	if b.pruned && !poisonDead {
		for _, c := range b.live {
			b.fit(c, capacity)
		}
	} else {
		for c := range b.Cols {
			b.fit(c, capacity)
		}
	}
	b.Sel = nil
	b.N = 0
}

// fit gives column c a vector of exactly capacity values.
func (b *Batch) fit(c, capacity int) {
	if cap(b.Cols[c]) < capacity {
		b.Cols[c] = make([]datum.Datum, capacity)
	}
	b.Cols[c] = b.Cols[c][:capacity]
	if poisonDead {
		poison(b.Cols[c])
	}
}

// poisonDead makes every batch start with a vector for every column and
// each value poisoned. A dead column, which has no vector otherwise (see
// onlyLive), then reads as a value no table holds, and so does a row an
// operator left unfilled; a reader of either changes results, which the
// batch-vs-row tests see. Only tests set it.
var poisonDead = false

// poisonDatum is the value poisonDead writes.
var poisonDatum = datum.NewString("\x00dead slot")

// poison overwrites vals with poisonDatum.
func poison(vals []datum.Datum) {
	for i := range vals {
		vals[i] = poisonDatum
	}
}

// liveSlots returns the output slots of n that a batch operator fills: the
// liveness pass's record, or every slot when n carries none (a hand-built
// plan).
func liveSlots(n optimizer.PlanNode) []int {
	if l := n.Live(); l != nil {
		return l.Slots
	}
	return allSlots(len(n.Columns()))
}

// scanSlots returns the slots a scan fills for every candidate row (first)
// and those it fills only for rows that pass its filter (late). A scan with
// no liveness record fills every slot first.
func scanSlots(n optimizer.PlanNode) (first, late []int) {
	if l := n.Live(); l != nil {
		return l.First(), l.Late()
	}
	return allSlots(len(n.Columns())), nil
}

// allSlots returns 0..width-1.
func allSlots(width int) []int {
	out := make([]int, width)
	for i := range out {
		out[i] = i
	}
	return out
}

// rowSlot returns slot c of a scan's output for table row rid (held in
// src): a table column, or the rowid in the slot just past them.
func rowSlot(src []datum.Datum, c, rid int) datum.Datum {
	if c < len(src) {
		return src[c]
	}
	return datum.NewInt(int64(rid))
}

// fillSlots copies the given slots of table row rid (held in src) into
// physical row r.
func (b *Batch) fillSlots(slots []int, r int, src []datum.Datum, rid int) {
	for _, c := range slots {
		b.Cols[c][r] = rowSlot(src, c, rid)
	}
}

// grow prepares the batch for an operator's next fill and returns the
// capacity to fill to: minBatchRows on first use, batchGrowth times the
// previous capacity whenever the previous fill used all of it, never more
// than limit (the execution's batch size). An operator that keeps producing
// a handful of rows per call therefore never pays for a full-width batch.
func (b *Batch) grow(width, limit int) int {
	switch {
	case b.size == 0:
		b.size = minBatchRows
	case b.N >= b.size:
		b.size *= batchGrowth
	}
	if b.size > limit {
		b.size = limit
	}
	b.reset(width, b.size)
	return b.size
}

// appendRow adds one dense row (physical == logical) to the batch. The
// batch must have been reset with enough capacity.
func (b *Batch) appendRow(r Row) {
	for c := range b.Cols {
		b.Cols[c][b.N] = r[c]
	}
	b.N++
}

// batchIterator is the vectorized operator interface: the volcano contract
// with batches instead of rows. NextBatch returns nil at end of input and
// never returns an empty batch.
type batchIterator interface {
	// Open prepares the iterator; outer supplies correlation bindings.
	Open(outer *Ctx) error
	// NextBatch returns the next batch of rows, or nil at end of input.
	NextBatch() (*Batch, error)
	Close() error
}

// RowIter adapts a batch subtree to the row-at-a-time iterator contract.
// It is the compatibility seam that lets operators migrate to batches
// incrementally: a not-yet-vectorized operator consumes its vectorized
// child through a RowIter and never sees a batch. Each batch is
// materialized once into fresh rows (Batch.appendRows), so buffering
// consumers (sorts, joins, subquery caches) can keep the rows they are
// handed.
type RowIter struct {
	src  batchIterator
	rows []Row // the current batch's rows
	k    int
}

// NewRowIter wraps a batch iterator for row-at-a-time consumption.
func NewRowIter(src batchIterator) *RowIter { return &RowIter{src: src} }

func (it *RowIter) Open(outer *Ctx) error {
	it.rows, it.k = it.rows[:0], 0
	return it.src.Open(outer)
}

func (it *RowIter) Next() (Row, error) {
	for it.k >= len(it.rows) {
		b, err := it.src.NextBatch()
		if err != nil || b == nil {
			it.rows, it.k = it.rows[:0], 0
			return nil, err
		}
		clear(it.rows)
		it.rows, it.k = b.appendRows(it.rows[:0]), 0
	}
	r := it.rows[it.k]
	it.k++
	return r, nil
}

func (it *RowIter) Close() error { return it.src.Close() }

// rowSourceIter adapts a row-at-a-time subtree to the batch contract by
// buffering up to one batch capacity of rows per NextBatch. It carries
// operators that have not been vectorized (nested-loops joins, window
// functions, set operations) through a batch plan.
type rowSourceIter struct {
	e     *env
	child iterator
	width int
	b     Batch
}

func (it *rowSourceIter) Open(outer *Ctx) error { return it.child.Open(outer) }

func (it *rowSourceIter) NextBatch() (*Batch, error) {
	if err := it.e.checkCancelBatch(); err != nil {
		return nil, err
	}
	fill := it.b.grow(it.width, it.e.batchSize)
	for it.b.N < fill {
		r, err := it.child.Next()
		if err != nil {
			return nil, err
		}
		if r == nil {
			break
		}
		it.b.appendRow(r)
	}
	if it.b.N == 0 {
		return nil, nil
	}
	it.e.noteBatch(&it.b)
	return &it.b, nil
}

func (it *rowSourceIter) Close() error { return it.child.Close() }

// memBytes forwards the wrapped operator's buffered footprint so EXPLAIN
// ANALYZE memory sampling survives the adapter.
func (it *rowSourceIter) memBytes() int64 {
	if m, ok := it.child.(memReporter); ok {
		return m.memBytes()
	}
	return 0
}

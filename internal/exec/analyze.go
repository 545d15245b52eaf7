package exec

import (
	"context"
	"fmt"
	"time"
	"unsafe"

	"repro/internal/datum"
	"repro/internal/optimizer"
	"repro/internal/storage"
)

// OpStats are the runtime counters of one plan operator under EXPLAIN
// ANALYZE: volcano calls, rows produced, cumulative wall time (inclusive of
// the operator's subtree, as the volcano interface nests the calls), and
// the high-water mark of the operator's buffered memory.
type OpStats struct {
	// Opens counts Open calls; above 1 means the operator was re-opened
	// per outer row (lateral or subquery re-execution).
	Opens int64
	// Nexts counts Next calls, including the final end-of-input call. On
	// the batch engine a vectorized operator's Nexts counts NextBatch calls,
	// so Nexts < Rows is normal there (see Batches).
	Nexts int64
	// Rows counts logical rows returned: the batch engine adds each batch's
	// selected row count, so Rows is engine-independent and comparable
	// between a batched and a row-at-a-time run of the same plan.
	Rows int64
	// Batches counts batches returned by a vectorized operator; 0 for
	// operators running row-at-a-time.
	Batches int64
	// Time is cumulative wall time inside Open and Next, inclusive of
	// children.
	Time time.Duration
	// MemPeakBytes approximates the largest buffered footprint observed for
	// blocking operators (hash build side, sort/window/aggregate/set-op
	// materializations, join caches); 0 for streaming operators.
	MemPeakBytes int64
}

// RunStats maps every executed plan operator to its runtime counters.
// Operators of the plan that never ran (e.g. a subplan pruned by caching)
// have no entry.
type RunStats struct {
	Ops map[optimizer.PlanNode]*OpStats
}

// memReporter is implemented by buffering iterators; memBytes approximates
// the bytes currently buffered. It is sampled after Open (when blocking
// operators have just materialized) and at Close (when per-row caches have
// finished growing), never per row.
type memReporter interface {
	memBytes() int64
}

// instrIter wraps an operator's iterator with counter updates. It is
// inserted by build only when the env carries a RunStats, so the normal
// execution path pays nothing.
type instrIter struct {
	child iterator
	st    *OpStats
}

func (it *instrIter) Open(outer *Ctx) error {
	start := time.Now()
	err := it.child.Open(outer)
	it.st.Time += time.Since(start)
	it.st.Opens++
	it.sampleMem()
	return err
}

func (it *instrIter) Next() (Row, error) {
	start := time.Now()
	r, err := it.child.Next()
	it.st.Time += time.Since(start)
	it.st.Nexts++
	if err == nil && r != nil {
		it.st.Rows++
	}
	return r, err
}

func (it *instrIter) Close() error {
	it.sampleMem()
	return it.child.Close()
}

func (it *instrIter) sampleMem() {
	if m, ok := it.child.(memReporter); ok {
		if b := m.memBytes(); b > it.st.MemPeakBytes {
			it.st.MemPeakBytes = b
		}
	}
}

// instrBatchIter is instrIter for vectorized operators: Nexts counts
// NextBatch calls, Rows counts the logical (selected) rows each batch
// carries, and Batches counts non-empty batches, so logical row accounting
// stays identical to the row engine's.
type instrBatchIter struct {
	child batchIterator
	st    *OpStats
}

func (it *instrBatchIter) Open(outer *Ctx) error {
	start := time.Now()
	err := it.child.Open(outer)
	it.st.Time += time.Since(start)
	it.st.Opens++
	it.sampleMem()
	return err
}

func (it *instrBatchIter) NextBatch() (*Batch, error) {
	start := time.Now()
	b, err := it.child.NextBatch()
	it.st.Time += time.Since(start)
	it.st.Nexts++
	if err == nil && b != nil {
		it.st.Batches++
		it.st.Rows += int64(b.Rows())
	}
	return b, err
}

func (it *instrBatchIter) Close() error {
	it.sampleMem()
	return it.child.Close()
}

func (it *instrBatchIter) sampleMem() {
	if m, ok := it.child.(memReporter); ok {
		if b := m.memBytes(); b > it.st.MemPeakBytes {
			it.st.MemPeakBytes = b
		}
	}
}

// datumBytes is the in-memory size of one value.
const datumBytes = int64(unsafe.Sizeof(datum.Datum{}))

// rowBytes approximates the heap footprint of one row: slice header plus
// per-datum storage.
func rowBytes(r Row) int64 { return 48 + datumBytes*int64(len(r)) }

// rowsBytes approximates the footprint of a row buffer.
func rowsBytes(rows []Row) int64 {
	var b int64
	for _, r := range rows {
		b += rowBytes(r)
	}
	return b
}

// RunAnalyze executes the plan like RunContext while collecting per-operator
// runtime counters; render them with ExplainAnalyze.
func RunAnalyze(ctx context.Context, db *storage.DB, plan *optimizer.Plan) (*Result, *RunStats, error) {
	return RunAnalyzeWith(ctx, db, plan, Options{})
}

// RunAnalyzeWith is RunAnalyze with explicit engine options; the row counts
// it collects are logical rows on either engine, so a batched and a RowExec
// run of the same plan report identical per-operator Rows.
func RunAnalyzeWith(ctx context.Context, db *storage.DB, plan *optimizer.Plan, opts Options) (*Result, *RunStats, error) {
	e := newEnv(ctx, db, plan)
	e.applyOptions(opts)
	e.analyze = &RunStats{Ops: map[optimizer.PlanNode]*OpStats{}}
	res, err := runEnv(e)
	return res, e.analyze, err
}

// ExplainAnalyze renders the plan tree with each operator's runtime counters
// appended to its cost line. withTime controls whether wall-clock times are
// included: golden snapshots disable it, interactive use enables it.
func ExplainAnalyze(p *optimizer.Plan, rs *RunStats, withTime bool) string {
	return optimizer.ExplainWith(p, func(n optimizer.PlanNode) string {
		st := rs.Ops[n]
		if st == nil {
			return "  (actual: not executed)"
		}
		s := fmt.Sprintf("  (actual rows=%d nexts=%d opens=%d", st.Rows, st.Nexts, st.Opens)
		if st.Batches > 0 {
			s += fmt.Sprintf(" batches=%d", st.Batches)
		}
		if st.MemPeakBytes > 0 {
			s += fmt.Sprintf(" mem=%s", fmtBytes(st.MemPeakBytes))
		}
		if withTime {
			s += fmt.Sprintf(" time=%s", st.Time.Round(time.Microsecond))
		}
		return s + ")"
	})
}

// fmtBytes renders a byte count with a binary unit.
func fmtBytes(b int64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}

// Package exec implements the volcano-style execution engine that
// interprets physical plans from package optimizer against the in-memory
// storage engine: sequential and index scans, filters with correlated
// subquery evaluation under tuple iteration semantics with result caching
// (§2.1.1), nested-loops and hash joins with inner, semi, anti,
// null-aware anti and left outer variants (semijoin and antijoin have the
// stop-at-first-match property and cache results for duplicate left keys,
// as the paper describes), hash aggregation with grouping sets, distinct,
// sort, rownum limits and set operations.
package exec

import (
	"context"
	"fmt"

	"repro/internal/datum"
	"repro/internal/obsv"
	"repro/internal/optimizer"
	"repro/internal/qtree"
	"repro/internal/storage"
)

// Metric names exported by the batch engine through Options.Metrics.
const (
	// MetricBatchRows counts logical rows carried by batches leaving the
	// plan's batch sources (scans and row→batch adapters).
	MetricBatchRows = "exec.batch.rows"
	// MetricBatchBatches counts batches produced by those sources.
	MetricBatchBatches = "exec.batch.batches"
	// MetricBatchSelectivity is a histogram of the percentage of a batch's
	// rows surviving each filter application.
	MetricBatchSelectivity = "exec.batch.selectivity"
)

// Row is one result row.
type Row []datum.Datum

// Ctx resolves column references at runtime. Each operator exposes its
// current row under its output schema; parent links provide correlation
// (outer rows) for subqueries, lateral views and index probes. An operator
// owns its contexts: their column indexes are built with the iterator, and
// Open only rebinds the parent.
type Ctx struct {
	parent *Ctx
	cols   colIndex
	row    Row
}

// lookup resolves a column through the context chain.
func (c *Ctx) lookup(id optimizer.ColID) (datum.Datum, bool) {
	for cur := c; cur != nil; cur = cur.parent {
		if i, ok := cur.cols.find(id); ok {
			return cur.row[i], true
		}
	}
	return datum.Null, false
}

// colRun maps n consecutive ordinals of one from item, starting at ord0, to
// n consecutive schema slots starting at slot0.
type colRun struct {
	from  qtree.FromID
	ord0  int
	n     int
	slot0 int
}

// colIndex resolves a ColID to its slot in an operator's schema. Scans,
// joins and projections expose consecutive ordinals of one from item, so a
// schema encodes as a few runs and find is a short scan with no hashing.
type colIndex []colRun

// newColIndex run-encodes a schema.
func newColIndex(cols []optimizer.ColID) colIndex {
	var x colIndex
	for i, c := range cols {
		if k := len(x) - 1; k >= 0 && x[k].from == c.From && x[k].ord0+x[k].n == c.Ord {
			x[k].n++
			continue
		}
		x = append(x, colRun{from: c.From, ord0: c.Ord, n: 1, slot0: i})
	}
	return x
}

// find returns id's slot. A run holds each ColID at most once and runs are
// scanned last to first, so a ColID the schema repeats resolves to its last
// slot.
func (x colIndex) find(id optimizer.ColID) (int, bool) {
	for k := len(x) - 1; k >= 0; k-- {
		r := &x[k]
		if r.from == id.From && uint(id.Ord-r.ord0) < uint(r.n) {
			return r.slot0 + id.Ord - r.ord0, true
		}
	}
	return 0, false
}

// schemaCtx returns a context over schema, unbound to any outer context.
func schemaCtx(schema []optimizer.ColID) Ctx { return Ctx{cols: newColIndex(schema)} }

// joinSchema is a join's combined schema: left columns, then right.
func joinSchema(n *optimizer.Join) []optimizer.ColID {
	return append(append([]optimizer.ColID(nil), n.L.Columns()...), n.R.Columns()...)
}

// env carries run-wide state.
type env struct {
	db   *storage.DB
	plan *optimizer.Plan
	// snap is the storage snapshot this execution reads through: every
	// table reference resolves to the same consistent multi-table view, so
	// concurrent commits never change a running statement's results.
	snap *storage.Snapshot
	// subqCache memoizes subquery predicate results under tuple iteration
	// semantics, keyed per subquery by correlation and left-hand values.
	subqCache map[*qtree.Subq]map[string]datum.Datum
	// key is the scratch buffer subquery cache and IN-set lookups encode
	// their keys into.
	key []byte
	// subqIters holds the compiled iterator per subquery expression.
	subqIters map[*qtree.Subq]*subqRuntime
	// SubqExecs counts subquery executions (cache misses); tests use it to
	// verify TIS caching.
	SubqExecs int
	// params holds the bind-parameter values for this execution, indexed by
	// qtree.Param.Ord (late binding: the plan is compiled once, values are
	// supplied per run).
	params []datum.Datum
	// ctx cancels execution mid-query; polled in the leaf scans, which
	// every row ultimately flows through (blocking operators drain their
	// inputs via scans too, so nested-loops re-scans, hash builds and sorts
	// all observe cancellation).
	ctx context.Context
	// steps counts scan rows between cancellation polls.
	steps uint
	// analyze, when non-nil, makes build wrap every operator with runtime
	// counters (EXPLAIN ANALYZE).
	analyze *RunStats
	// opts selects the engine (batch by default, row with opts.RowExec) and
	// carries the metrics sink.
	opts Options
	// batchSize caps the physical row capacity a batch grows to.
	batchSize int
	// metRows/metBatches/selHist are the resolved exec.batch.* metrics, nil
	// when no registry was supplied (the nil metrics are inert).
	metRows    *obsv.Counter
	metBatches *obsv.Counter
	selHist    *obsv.Histogram
}

// applyOptions resolves Options into the env.
func (e *env) applyOptions(opts Options) {
	e.opts = opts
	if opts.Snap != nil {
		e.snap = opts.Snap
	}
	if opts.BatchSize > 0 {
		e.batchSize = opts.BatchSize
	}
	if opts.Metrics != nil {
		e.metRows = opts.Metrics.Counter(MetricBatchRows)
		e.metBatches = opts.Metrics.Counter(MetricBatchBatches)
		e.selHist = opts.Metrics.Histogram(MetricBatchSelectivity, 1, 5, 10, 25, 50, 75, 90, 99, 100)
	}
}

// checkCancel polls env.ctx every 64th scan step (and on the first one, so
// cancellation is seen even on tiny tables).
func (e *env) checkCancel() error {
	if e.ctx != nil && e.steps&63 == 0 {
		select {
		case <-e.ctx.Done():
			return fmt.Errorf("exec: query canceled: %w", e.ctx.Err())
		default:
		}
	}
	e.steps++
	return nil
}

// checkCancelBatch polls env.ctx once per batch: the batch engine's
// cancellation granularity is one batch (at most batchSize rows) instead of
// the row engine's 64 rows.
func (e *env) checkCancelBatch() error {
	if e.ctx != nil {
		select {
		case <-e.ctx.Done():
			return fmt.Errorf("exec: query canceled: %w", e.ctx.Err())
		default:
		}
	}
	return nil
}

// noteBatch records a batch produced at a plan source in the run's metrics.
func (e *env) noteBatch(b *Batch) {
	e.metBatches.Add(1)
	e.metRows.Add(int64(b.Rows()))
}

// iterator is the volcano operator interface.
type iterator interface {
	// Open prepares the iterator; outer supplies correlation bindings.
	Open(outer *Ctx) error
	// Next returns the next row, or nil at end of input.
	Next() (Row, error)
	Close() error
}

// Result holds the rows produced by a query.
type Result struct {
	Rows []Row
}

// Run executes a plan against the database and returns all rows.
func Run(db *storage.DB, plan *optimizer.Plan) (*Result, error) {
	return RunContext(context.Background(), db, plan)
}

// RunContext is Run under a context: cancellation is polled in the volcano
// loop and in the leaf scans, so a canceled context stops even executions
// stuck inside a blocking operator's drain within a bounded number of rows
// (one batch on the batch engine).
func RunContext(ctx context.Context, db *storage.DB, plan *optimizer.Plan) (*Result, error) {
	return RunWith(ctx, db, plan, Options{})
}

// RunWith is RunContext with explicit engine options.
func RunWith(ctx context.Context, db *storage.DB, plan *optimizer.Plan, opts Options) (*Result, error) {
	e := newEnv(ctx, db, plan)
	e.applyOptions(opts)
	return runEnv(e)
}

// RunParams executes a plan with bind-parameter values, indexed by
// qtree.Param.Ord. The same (cached) plan may be run concurrently with
// different bind sets; each run carries its own values.
func RunParams(ctx context.Context, db *storage.DB, plan *optimizer.Plan, params []datum.Datum) (*Result, error) {
	return RunParamsWith(ctx, db, plan, params, Options{})
}

// RunParamsWith is RunParams with explicit engine options.
func RunParamsWith(ctx context.Context, db *storage.DB, plan *optimizer.Plan, params []datum.Datum, opts Options) (*Result, error) {
	e := newEnv(ctx, db, plan)
	e.applyOptions(opts)
	e.params = params
	return runEnv(e)
}

// table resolves a base table through the run's snapshot.
func (e *env) table(name string) *storage.Table {
	if e.snap != nil {
		return e.snap.Table(name)
	}
	return e.db.Table(name)
}

// newEnv prepares the run-wide state for one execution.
func newEnv(ctx context.Context, db *storage.DB, plan *optimizer.Plan) *env {
	e := &env{db: db, plan: plan, subqCache: map[*qtree.Subq]map[string]datum.Datum{}, batchSize: DefaultBatchSize}
	if db != nil {
		e.snap = db.Snapshot()
	}
	if ctx != nil && ctx != context.Background() {
		e.ctx = ctx
	}
	return e
}

// runEnv drives the selected engine to completion.
func runEnv(e *env) (*Result, error) {
	if e.opts.RowExec {
		return runEnvRows(e)
	}
	return runEnvBatches(e)
}

// runEnvRows builds the row iterator tree and drives the volcano loop.
func runEnvRows(e *env) (*Result, error) {
	it, err := build(e, e.plan.Root)
	if err != nil {
		return nil, err
	}
	if err := it.Open(nil); err != nil {
		return nil, err
	}
	defer it.Close()
	res := &Result{}
	for {
		if e.ctx != nil {
			select {
			case <-e.ctx.Done():
				return nil, fmt.Errorf("exec: query canceled: %w", e.ctx.Err())
			default:
			}
		}
		r, err := it.Next()
		if err != nil {
			return nil, err
		}
		if r == nil {
			return res, nil
		}
		res.Rows = append(res.Rows, r)
	}
}

// runEnvBatches builds the batch iterator tree and drains it batch-wise;
// result rows are materialized copies, so they outlive the operators'
// reused batches.
func runEnvBatches(e *env) (*Result, error) {
	it, err := buildBatch(e, e.plan.Root)
	if err != nil {
		return nil, err
	}
	if err := it.Open(nil); err != nil {
		return nil, err
	}
	defer it.Close()
	res := &Result{}
	for {
		b, err := it.NextBatch()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return res, nil
		}
		res.Rows = b.appendRows(res.Rows)
	}
}

// build constructs the iterator tree for a plan node, wrapping each
// operator with runtime counters when the run is being analyzed.
func build(e *env, n optimizer.PlanNode) (iterator, error) {
	it, err := buildNode(e, n)
	if err != nil {
		return it, err
	}
	return instrRow(e, n, it), nil
}

// instrRow wraps a row iterator with the node's runtime counters when the
// run is being analyzed.
func instrRow(e *env, n optimizer.PlanNode, it iterator) iterator {
	if e.analyze == nil {
		return it
	}
	return &instrIter{child: it, st: e.opStats(n)}
}

// opStats returns (creating on first use) the analyze counters for a node.
func (e *env) opStats(n optimizer.PlanNode) *OpStats {
	st := e.analyze.Ops[n]
	if st == nil {
		st = &OpStats{}
		e.analyze.Ops[n] = st
	}
	return st
}

func buildNode(e *env, n optimizer.PlanNode) (iterator, error) {
	switch v := n.(type) {
	case *optimizer.SeqScan:
		return newSeqScan(e, v), nil
	case *optimizer.IndexScan:
		return newIndexScan(e, v)
	case *optimizer.Filter:
		child, err := build(e, v.Child)
		if err != nil {
			return nil, err
		}
		return newFilter(e, v, child), nil
	case *optimizer.Project:
		child, err := build(e, v.Child)
		if err != nil {
			return nil, err
		}
		return newProject(e, v, child), nil
	case *optimizer.Join:
		l, err := build(e, v.L)
		if err != nil {
			return nil, err
		}
		r, err := build(e, v.R)
		if err != nil {
			return nil, err
		}
		if v.Method == optimizer.MethodHash {
			return newHashJoin(e, v, l, r), nil
		}
		return newNLJoin(e, v, l, r), nil
	case *optimizer.Agg:
		child, err := build(e, v.Child)
		if err != nil {
			return nil, err
		}
		return newAgg(e, v, child), nil
	case *optimizer.Window:
		child, err := build(e, v.Child)
		if err != nil {
			return nil, err
		}
		return newWindow(e, v, child), nil
	case *optimizer.Distinct:
		child, err := build(e, v.Child)
		if err != nil {
			return nil, err
		}
		return newDistinct(child), nil
	case *optimizer.Sort:
		child, err := build(e, v.Child)
		if err != nil {
			return nil, err
		}
		return newSort(e, v, child), nil
	case *optimizer.Limit:
		child, err := build(e, v.Child)
		if err != nil {
			return nil, err
		}
		return &limitIter{child: child, n: v.N}, nil
	case *optimizer.SetNode:
		var kids []iterator
		for _, in := range v.Inputs {
			k, err := build(e, in)
			if err != nil {
				return nil, err
			}
			kids = append(kids, k)
		}
		return newSetOp(v, kids), nil
	}
	return nil, fmt.Errorf("exec: cannot execute node %T (cost-only stub?)", n)
}

// buildBatch constructs the batch iterator tree for a plan node. Vectorized
// operators are instrumented batch-wise; operators still running on the row
// engine come back wrapped in a rowSourceIter whose inner row iterator is
// already instrumented per row, so they are not wrapped again (the node
// would be counted twice).
func buildBatch(e *env, n optimizer.PlanNode) (batchIterator, error) {
	it, err := buildBatchNode(e, n)
	if err != nil || e.analyze == nil {
		return it, err
	}
	if _, ok := it.(*rowSourceIter); ok {
		return it, nil
	}
	return &instrBatchIter{child: it, st: e.opStats(n)}, nil
}

// buildBatchNode dispatches a plan node to its vectorized operator, or to a
// row operator bridged with the RowIter / rowSourceIter adapter pair. The
// bridged operators (nested-loops joins, window functions, set operations)
// still consume vectorized subtrees through RowIter, so only the operator
// itself runs row-at-a-time.
func buildBatchNode(e *env, n optimizer.PlanNode) (batchIterator, error) {
	switch v := n.(type) {
	case *optimizer.SeqScan:
		return newBatchSeqScan(e, v), nil
	case *optimizer.IndexScan:
		return newBatchIndexScan(e, v)
	case *optimizer.Filter:
		child, err := buildBatch(e, v.Child)
		if err != nil {
			return nil, err
		}
		return newBatchFilter(e, v, child), nil
	case *optimizer.Project:
		child, err := buildBatch(e, v.Child)
		if err != nil {
			return nil, err
		}
		return newBatchProject(e, v, child), nil
	case *optimizer.Join:
		if v.Method == optimizer.MethodHash {
			l, err := buildBatch(e, v.L)
			if err != nil {
				return nil, err
			}
			r, err := buildBatch(e, v.R)
			if err != nil {
				return nil, err
			}
			return newBatchHashJoin(e, v, l, r), nil
		}
		// The dominant lateral shape — an index probe re-opened per left
		// row — runs on the vectorized nested-loops join, which inlines
		// the probe and copies matches from table storage straight into
		// the output batch.
		if canBatchNLJoin(v) {
			l, err := buildBatch(e, v.L)
			if err != nil {
				return nil, err
			}
			return newBatchNLJoin(e, v, l)
		}
		// Remaining nested-loops joins run their whole subtree
		// row-at-a-time: filling batches just to unpack them again
		// row-wise under the join would double the copy work (measured as
		// a net slowdown). The row build instruments the subtree itself,
		// so EXPLAIN ANALYZE accounting is unchanged.
		j, err := build(e, n)
		if err != nil {
			return nil, err
		}
		return newRowSource(e, n, j), nil
	case *optimizer.Agg:
		child, err := buildBatch(e, v.Child)
		if err != nil {
			return nil, err
		}
		return newBatchAgg(e, v, child), nil
	case *optimizer.Window:
		child, err := buildBatch(e, v.Child)
		if err != nil {
			return nil, err
		}
		w := newWindow(e, v, NewRowIter(child))
		return newRowSource(e, n, instrRow(e, n, w)), nil
	case *optimizer.Distinct:
		child, err := buildBatch(e, v.Child)
		if err != nil {
			return nil, err
		}
		return newBatchDistinct(e, child), nil
	case *optimizer.Sort:
		child, err := buildBatch(e, v.Child)
		if err != nil {
			return nil, err
		}
		return newBatchSort(e, v, child), nil
	case *optimizer.Limit:
		child, err := buildBatch(e, v.Child)
		if err != nil {
			return nil, err
		}
		return &batchLimitIter{child: child, n: v.N}, nil
	case *optimizer.SetNode:
		var kids []iterator
		for _, in := range v.Inputs {
			k, err := buildBatch(e, in)
			if err != nil {
				return nil, err
			}
			kids = append(kids, NewRowIter(k))
		}
		s := newSetOp(v, kids)
		return newRowSource(e, n, instrRow(e, n, s)), nil
	}
	return nil, fmt.Errorf("exec: cannot execute node %T (cost-only stub?)", n)
}

// newRowSource bridges a row operator back into a batch plan.
func newRowSource(e *env, n optimizer.PlanNode, it iterator) *rowSourceIter {
	return &rowSourceIter{e: e, child: it, width: len(n.Columns())}
}

// appendRowKey appends the row's grouping key to dst: the values'
// datum.AppendKey encodings back to back. Each encoding is self-delimiting,
// so equal keys mean column-wise SameValue (nulls match nulls). Hash tables
// look up with m[string(key)] over a reused buffer, which does not allocate.
func appendRowKey(dst []byte, r Row) []byte {
	for _, d := range r {
		dst = datum.AppendKey(dst, d)
	}
	return dst
}

// keyTable groups row indices by encoded row key (appendRowKey): each
// distinct key owns one bucket, and buckets keep first-insertion order.
// Lookups take the caller's reused key buffer and do not allocate; a key
// string is allocated only when a new key is inserted. The zero value is
// an empty table.
type keyTable struct {
	ids     map[string]int
	buckets [][]int
}

func newKeyTable(size int) keyTable { return keyTable{ids: make(map[string]int, size)} }

// get returns key's bucket, nil when the key is absent.
func (t *keyTable) get(key []byte) []int {
	if id, ok := t.ids[string(key)]; ok {
		return t.buckets[id]
	}
	return nil
}

// slot returns key's bucket for appending, creating it on first use. The
// pointer is valid until the next slot call.
func (t *keyTable) slot(key []byte) *[]int {
	id, ok := t.ids[string(key)]
	if !ok {
		if t.ids == nil {
			t.ids = map[string]int{}
		}
		id = len(t.buckets)
		t.ids[string(key)] = id
		t.buckets = append(t.buckets, nil)
	}
	return &t.buckets[id]
}

// memBytes approximates the table for EXPLAIN ANALYZE: per key a map entry,
// the key bytes and the bucket's indices.
func (t *keyTable) memBytes() int64 {
	var b int64
	for k, id := range t.ids {
		b += 48 + int64(len(k)) + 8*int64(len(t.buckets[id]))
	}
	return b
}

package cbqt

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/exec"
	"repro/internal/obsv"
	"repro/internal/optimizer"
	"repro/internal/qtree"
	"repro/internal/storage"
	"repro/internal/testkit"
)

// traceCases are the two paper workloads the trace and EXPLAIN ANALYZE
// goldens pin: the Table 1 query on the tiny emp/dept/proj schema and the
// Table 2 query on the HR/OE demo schema.
func traceCases() []struct {
	name string
	db   *storage.DB
	sql  string
} {
	return []struct {
		name string
		db   *storage.DB
		sql  string
	}{
		{name: "q1_table1", db: testkit.TinyDB(), sql: table1SQL},
		{name: "table2", db: testkit.NewDB(testkit.SmallSizes(), 7), sql: table2SQL},
	}
}

var traceStrategies = []struct {
	name  string
	strat Strategy
}{
	{"exhaustive", StrategyExhaustive},
	{"linear", StrategyLinear},
	{"two-pass", StrategyTwoPass},
	{"iterative", StrategyIterative},
}

// optimizeTraced runs one CBQT optimization with tracing on and returns the
// result.
func optimizeTraced(t *testing.T, db *storage.DB, sql string, strat Strategy) *Result {
	t.Helper()
	opts := DefaultOptions()
	opts.Strategy = strat
	opts.Trace = true
	q := qtree.MustBind(sql, db.Catalog)
	o := &Optimizer{Cat: db.Catalog, Opts: opts}
	res, err := o.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// compareGolden checks got against the snapshot at path, or rewrites the
// snapshot under -update.
func compareGolden(t *testing.T, path, got string) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden snapshot %s (run with -update to create): %v", path, err)
	}
	if got != string(want) {
		t.Errorf("snapshot diverged from %s:\n--- got ---\n%s\n--- want ---\n%s\ndiff starts at %q",
			path, got, want, firstDiff(got, string(want)))
	}
}

// TestGoldenTrace pins the normalized JSONL search trace of the Table 1 and
// Table 2 queries under every search strategy. The normalized form strips
// timings and work counters, so the snapshots are byte-stable across
// machines; refresh intentionally with
//
//	go test ./internal/cbqt/ -run TestGoldenTrace -update
func TestGoldenTrace(t *testing.T) {
	for _, tc := range traceCases() {
		for _, st := range traceStrategies {
			t.Run(tc.name+"/"+st.name, func(t *testing.T) {
				res := optimizeTraced(t, tc.db, tc.sql, st.strat)
				got := obsv.MarshalJSONL(obsv.Normalize(res.Stats.Events))
				path := filepath.Join("testdata", "golden", tc.name+"_"+st.name+"_trace.jsonl")
				compareGolden(t, path, got)
			})
		}
	}
}

// TestTraceStateCountMatchesStats checks the accounting invariant between
// the structured trace and the summary statistics: the number of EvState
// events whose outcome is costed or cut equals Stats.StatesEvaluated
// (infeasible, faulted and budget-stopped states are excluded from both), at
// every strategy.
func TestTraceStateCountMatchesStats(t *testing.T) {
	for _, tc := range traceCases() {
		for _, st := range traceStrategies {
			t.Run(tc.name+"/"+st.name, func(t *testing.T) {
				res := optimizeTraced(t, tc.db, tc.sql, st.strat)
				evaluated := 0
				for _, e := range res.Stats.Events {
					if e.Ev != obsv.EvState {
						continue
					}
					switch e.Outcome {
					case obsv.OutcomeCosted, obsv.OutcomeCut:
						evaluated++
					}
				}
				if evaluated != res.Stats.StatesEvaluated {
					t.Errorf("trace has %d costed/cut state events, Stats.StatesEvaluated = %d",
						evaluated, res.Stats.StatesEvaluated)
				}
			})
		}
	}
}

// TestGoldenExplainAnalyze pins the EXPLAIN ANALYZE rendering of the Table 1
// and Table 2 plans. Wall-clock times are excluded (withTime=false); row
// counts, call counts and memory high-water marks are deterministic for a
// fixed seed because memory is computed from buffered row counts with a
// fixed per-row formula, so the full annotation is snapshot-stable.
func TestGoldenExplainAnalyze(t *testing.T) {
	for _, tc := range traceCases() {
		t.Run(tc.name, func(t *testing.T) {
			opts := DefaultOptions()
			q := qtree.MustBind(tc.sql, tc.db.Catalog)
			o := &Optimizer{Cat: tc.db.Catalog, Opts: opts}
			res, err := o.Optimize(q)
			if err != nil {
				t.Fatal(err)
			}
			r, rs, err := exec.RunAnalyze(context.Background(), tc.db, res.Plan)
			if err != nil {
				t.Fatal(err)
			}
			got := fmt.Sprintf("-- plan (analyzed, %d result rows) --\n%s",
				len(r.Rows), exec.ExplainAnalyze(res.Plan, rs, false))
			path := filepath.Join("testdata", "golden", tc.name+"_analyze.txt")
			compareGolden(t, path, got)
		})
	}
}

// invariantSQL lists queries whose analyzed plans cover every operator the
// row-count invariants constrain: joins in all paper variants (Table 2),
// window functions, set operations, aggregation, sorting and ROWNUM limits.
var invariantSQL = []struct {
	name string
	sql  string
}{
	{"table2", table2SQL},
	{"window", `SELECT e.employee_name, e.dept_id, SUM(e.salary) OVER (PARTITION BY e.dept_id) s
FROM employees e WHERE e.salary > 100`},
	{"setop", `SELECT e.dept_id c0 FROM employees e UNION SELECT d.dept_id c0 FROM departments d`},
	{"setop_minus", `SELECT d.dept_id c0 FROM departments d MINUS SELECT e.dept_id c0 FROM employees e WHERE e.salary > 500`},
	{"agg_order", `SELECT e.dept_id, COUNT(*) c FROM employees e GROUP BY e.dept_id ORDER BY c DESC`},
	{"rownum", `SELECT e.employee_name FROM employees e WHERE ROWNUM <= 7`},
}

// TestExplainAnalyzeRowInvariants executes a spread of plans under EXPLAIN
// ANALYZE and checks parent/child row-count consistency for every operator,
// including subquery plans. The bounds are conservative: they hold across
// re-opened subtrees (counters accumulate over opens) and early termination
// (a parent that stops pulling leaves a child partially drained).
func TestExplainAnalyzeRowInvariants(t *testing.T) {
	db := testkit.NewDB(testkit.SmallSizes(), 7)
	for _, tc := range invariantSQL {
		t.Run(tc.name, func(t *testing.T) {
			opts := DefaultOptions()
			q := qtree.MustBind(tc.sql, db.Catalog)
			o := &Optimizer{Cat: db.Catalog, Opts: opts}
			res, err := o.Optimize(q)
			if err != nil {
				t.Fatal(err)
			}
			r, rs, err := exec.RunAnalyze(context.Background(), db, res.Plan)
			if err != nil {
				t.Fatal(err)
			}
			if root := rs.Ops[res.Plan.Root]; root == nil {
				t.Fatalf("no runtime counters for the plan root")
			} else if root.Rows != int64(len(r.Rows)) {
				t.Errorf("root operator returned %d rows, result has %d", root.Rows, len(r.Rows))
			}
			checkRowInvariants(t, res.Plan.Root, rs)
			for _, sp := range res.Plan.Subplans {
				checkRowInvariants(t, sp.Root, rs)
			}
		})
	}
}

// checkRowInvariants walks the plan asserting per-operator row-count bounds
// against the EXPLAIN ANALYZE counters.
func checkRowInvariants(t *testing.T, root optimizer.PlanNode, rs *exec.RunStats) {
	t.Helper()
	rows := func(n optimizer.PlanNode) int64 {
		if st := rs.Ops[n]; st != nil {
			return st.Rows
		}
		return 0
	}
	optimizer.Walk(root, func(n optimizer.PlanNode) {
		st := rs.Ops[n]
		if st == nil {
			// Never built (subplan pruned before instrumentation); nothing
			// to check.
			return
		}
		if st.Batches > 0 {
			// Vectorized operator: Nexts counts NextBatch calls, so the
			// per-row Next bound does not apply; each counted batch is
			// non-empty and every batch comes from one NextBatch call.
			if st.Rows < st.Batches {
				t.Errorf("%s: %d rows over %d batches (empty batches leaked)", n.Label(), st.Rows, st.Batches)
			}
			if st.Nexts < st.Batches {
				t.Errorf("%s: %d batches from only %d NextBatch calls", n.Label(), st.Batches, st.Nexts)
			}
		} else if st.Rows > 0 && st.Nexts < st.Rows {
			t.Errorf("%s: %d rows from only %d Next calls", n.Label(), st.Rows, st.Nexts)
		}
		out := st.Rows
		switch v := n.(type) {
		case *optimizer.Filter, *optimizer.Project, *optimizer.Distinct,
			*optimizer.Sort, *optimizer.Window:
			// One input, output never exceeds it (sort/window reproduce their
			// input exactly but a parent may stop pulling early).
			in := rows(n.Children()[0])
			if out > in {
				t.Errorf("%s: %d output rows > %d input rows", n.Label(), out, in)
			}
		case *optimizer.Limit:
			if max := v.N * maxI64(st.Opens, 1); out > max {
				t.Errorf("Limit %d: %d output rows over %d opens", v.N, out, st.Opens)
			}
		case *optimizer.Join:
			l, r := rows(v.L), rows(v.R)
			// The product bound, padded for outer-join null extension. It
			// holds under lateral caching too: a cached right side executes
			// once, so r is the per-key row count and out <= l*r.
			if max := maxI64(l, 1)*maxI64(r, 1) + l + r; out > max {
				t.Errorf("%s: %d output rows from %d x %d input rows", n.Label(), out, l, r)
			}
		case *optimizer.Agg:
			in := rows(v.Child)
			sets := int64(len(v.GroupingSets))
			if sets == 0 {
				sets = 1
			}
			// At most one group per input row per grouping set; a scalar
			// aggregate emits one row per open even on empty input.
			if max := (in + maxI64(st.Opens, 1)) * sets; out > max {
				t.Errorf("%s: %d output rows from %d input rows (%d sets)", n.Label(), out, in, sets)
			}
		case *optimizer.SetNode:
			var in int64
			for _, c := range v.Inputs {
				in += rows(c)
			}
			// UNION/INTERSECT/MINUS only ever drop rows; UNION ALL keeps all.
			if out > in {
				t.Errorf("%s: %d output rows > %d total input rows", n.Label(), out, in)
			}
		}
	})
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// TestGoldenRawOneWorker pins the un-normalized event stream (every state's
// key, outcome, Blocks, CacheHits and cost; only timings stripped) and the
// exact work totals of the Table 1 and Table 2 searches under every
// strategy: the cut/costed split, block counts and cache hits exactly, not
// merely up to obsv.Normalize. The search is one sequential loop; the
// "_par1" in the file names is the one-worker setting they were first
// recorded at, before the search had a single mode.
func TestGoldenRawOneWorker(t *testing.T) {
	for _, tc := range traceCases() {
		for _, st := range traceStrategies {
			t.Run(tc.name+"/"+st.name, func(t *testing.T) {
				res := optimizeTraced(t, tc.db, tc.sql, st.strat)
				events := append([]obsv.SearchEvent(nil), res.Stats.Events...)
				for i := range events {
					events[i].ElapsedUS = 0
				}
				s := res.Stats
				got := obsv.MarshalJSONL(events) + fmt.Sprintf(
					"states=%d blocks=%d annotation_hits=%d cache_hits=%d cache_misses=%d\n",
					s.StatesEvaluated, s.BlocksOptimized, s.AnnotationHits, s.CacheHits, s.CacheMisses)
				path := filepath.Join("testdata", "golden", tc.name+"_"+st.name+"_raw_par1.jsonl")
				compareGolden(t, path, got)
			})
		}
	}
}

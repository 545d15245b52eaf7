package exec_test

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/bench"
	"repro/internal/cbqt"
	"repro/internal/datum"
	"repro/internal/exec"
	"repro/internal/optimizer"
	"repro/internal/qtree"
	"repro/internal/testkit"
)

// pointReads are the short cached statements a plan cache exists for: a
// one-row primary-key lookup and two index joins driven by it. Their cost
// must follow the rows they touch, not the width of a full batch.
var pointReads = []struct {
	name, sql string
	maxRows   int
}{
	{"pk", `SELECT e.employee_name, e.salary, e.dept_id FROM employees e WHERE e.emp_id = :emp_id`, 1},
	{"join1", `SELECT e.employee_name, d.department_name FROM employees e, departments d
	  WHERE e.dept_id = d.dept_id AND e.emp_id = :emp_id`, 1},
	{"joinN", `SELECT e.employee_name, s.sale_id, s.amount FROM employees e, sales s
	  WHERE s.emp_id = e.emp_id AND e.emp_id = :emp_id`, 64},
}

// pointReadAllocBudget is the allocation gate per execution. Before batches
// grew to fit, these statements allocated 265-794 KB each (every operator
// zeroing width x 1024 datums up front).
const pointReadAllocBudget = 32 << 10

// TestPointReadAllocBudget gates bytes allocated per exec.RunParams call of
// each point read, and pins that the plans really are index-driven (a plan
// that fell back to a scan would make the budget meaningless).
func TestPointReadAllocBudget(t *testing.T) {
	db := getBenchDB(t)
	ctx := context.Background()
	for _, pr := range pointReads {
		t.Run(pr.name, func(t *testing.T) {
			plan := planSQL(t, db, pr.sql)
			if text := optimizer.Explain(plan); !strings.Contains(text, "IndexScan") {
				t.Fatalf("plan is not index-driven:\n%s", text)
			}
			run := func(id int64) {
				res, err := exec.RunParams(ctx, db, plan, []datum.Datum{datum.NewInt(id)})
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Rows) > pr.maxRows {
					t.Fatalf("emp_id %d: %d rows, want <= %d", id, len(res.Rows), pr.maxRows)
				}
			}
			run(1) // lazy set-up outside the measurement
			const runs = 200
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				run(int64(1 + i*97%20000))
			}
			runtime.ReadMemStats(&after)
			perOp := (after.TotalAlloc - before.TotalAlloc) / runs
			t.Logf("%s: %d B/op, %d allocs/op", pr.name, perOp, (after.Mallocs-before.Mallocs)/runs)
			if perOp >= pointReadAllocBudget {
				t.Fatalf("%s allocates %d B per execution, budget %d", pr.name, perOp, pointReadAllocBudget)
			}
		})
	}
}

// groupByAllocBudget is the allocation gate per output group of a hash
// aggregation. Before group keys were encoded into a reused buffer and
// the per-row argument rows were dropped, this query allocated about 470
// times per group (some 14 times per input row).
const groupByAllocBudget = 16

// TestGroupByAllocBudget gates allocations per output group of a batch-
// engine GROUP BY over medium data: the cost of grouping must follow the
// groups it builds, not the rows it folds.
func TestGroupByAllocBudget(t *testing.T) {
	db := getBenchDB(t)
	plan := planSQL(t, db, `SELECT s.dept_id, COUNT(*), SUM(s.amount), MAX(s.amount)
	  FROM sales s WHERE s.amount > 200 GROUP BY s.dept_id`)
	ctx := context.Background()
	var groups int
	run := func() {
		res, err := exec.RunContext(ctx, db, plan)
		if err != nil {
			t.Fatal(err)
		}
		groups = len(res.Rows)
	}
	run() // lazy set-up outside the measurement
	if groups < 2 {
		t.Fatalf("%d groups; the gate needs several", groups)
	}
	allocs := testing.AllocsPerRun(20, run)
	perGroup := allocs / float64(groups)
	t.Logf("%.0f allocs/op over %d groups: %.1f per group", allocs, groups, perGroup)
	if perGroup >= groupByAllocBudget {
		t.Fatalf("GROUP BY allocates %.1f times per group, budget %d", perGroup, groupByAllocBudget)
	}
}

// semiAntiAllocBudget is the allocation gate per execution of the Table 2
// family with ten subqueries on small data. While row-engine joins built a
// combined row for every (left, right) pair they checked, and contexts
// resolved columns through a map rebuilt on every Open, it allocated 16 580
// times per execution; with one scratch row per join, run-encoded column
// indexes built with the iterator and the batched probe filter it
// allocates about 3 760 times.
const semiAntiAllocBudget = 6000

// TestSemiAntiAllocBudget gates allocations per exec.RunContext of the
// CBQT plan for bench.Table2FamilyQuery(10): semi and anti joins on the row
// engine, correlated subplans re-opened per outer row, and inlined index
// probes with filters.
func TestSemiAntiAllocBudget(t *testing.T) {
	db := testkit.NewDB(testkit.SmallSizes(), 1)
	res, err := cbqt.New(db.Catalog).Optimize(qtree.MustBind(bench.Table2FamilyQuery(10), db.Catalog))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	run := func() {
		if _, err := exec.RunContext(ctx, db, res.Plan); err != nil {
			t.Fatal(err)
		}
	}
	run() // lazy set-up outside the measurement
	allocs := testing.AllocsPerRun(20, run)
	t.Logf("%.0f allocs per execution", allocs)
	if allocs >= semiAntiAllocBudget {
		t.Fatalf("Table 2 family allocates %.0f times per execution, budget %d\n%s",
			allocs, semiAntiAllocBudget, optimizer.Explain(res.Plan))
	}
}

// TestDatumIs32Bytes pins the value layout every row, batch vector and
// hash table pays for per value (and that EXPLAIN ANALYZE charges).
func TestDatumIs32Bytes(t *testing.T) {
	if n := unsafe.Sizeof(datum.Datum{}); n != 32 {
		t.Fatalf("datum.Datum is %d bytes, want 32", n)
	}
}

// BenchmarkEnginePointRead is the executor's fixed cost per cached
// statement: the three point reads through exec.RunParams on medium data.
func BenchmarkEnginePointRead(b *testing.B) {
	db := getBenchDB(b)
	ctx := context.Background()
	for _, pr := range pointReads {
		plan := planSQL(b, db, pr.sql)
		b.Run(pr.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := exec.RunParams(ctx, db, plan, []datum.Datum{datum.NewInt(int64(1 + i%20000))}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestFullScanBatchCount pins the price of growing: a full scan of SALES
// (40k rows) produces at most three more batches than fixed 1024-row
// batches would, and carries exactly the same rows.
func TestFullScanBatchCount(t *testing.T) {
	db := getBenchDB(t)
	plan := planSQL(t, db, `SELECT s.sale_id FROM sales s`)
	_, st, err := exec.RunAnalyze(context.Background(), db, plan)
	if err != nil {
		t.Fatal(err)
	}
	rows := len(db.Table("SALES").Rows)
	fixed := (rows + exec.DefaultBatchSize - 1) / exec.DefaultBatchSize
	for n, op := range st.Ops {
		if _, ok := n.(*optimizer.SeqScan); !ok {
			continue
		}
		if op.Rows != int64(rows) {
			t.Fatalf("scan carried %d rows, table has %d", op.Rows, rows)
		}
		if op.Batches > int64(fixed+3) {
			t.Fatalf("scan produced %d batches, want <= %d", op.Batches, fixed+3)
		}
		return
	}
	t.Fatalf("no SeqScan in plan:\n%s", optimizer.Explain(plan))
}

// analyticHashBuildSQL is the fifth statement of the analytic_cached
// benchmark workload. Its cached plan hash-joins a DEPARTMENTS build side of
// five slots (four columns and the rowid), of which the statement reads two.
var analyticHashBuildSQL = bench.Table2FamilyQuery(2) + " AND e.salary > :salary"

// analyticHashBuildAllocBudget is the allocation gate per execution of
// analyticHashBuildSQL, in bytes. Measured on x86-64 with go1.24 over
// medium data: 4.99-5.05 MB while every scan, join and projection batch
// carried a vector for each of its columns and the hash build stored all of
// them; 3.69-3.72 MB once they carry, fill and store only the columns the
// plan reads.
const analyticHashBuildAllocBudget = 4_300_000

// TestAnalyticHashBuildAllocBudget gates bytes allocated per exec.RunParams
// of the CBQT plan of analyticHashBuildSQL at the workload's four binds, and
// pins that the plan has a hash join whose build side carries a column
// nothing reads (without one the gate would measure nothing).
func TestAnalyticHashBuildAllocBudget(t *testing.T) {
	db := getBenchDB(t)
	res, err := cbqt.New(db.Catalog).Optimize(qtree.MustBind(analyticHashBuildSQL, db.Catalog))
	if err != nil {
		t.Fatal(err)
	}
	plan := res.Plan
	unread := false
	optimizer.Walk(plan.Root, func(n optimizer.PlanNode) {
		if j, ok := n.(*optimizer.Join); ok && j.Method == optimizer.MethodHash {
			if live := j.R.Live(); live != nil && len(live.Slots) < len(j.R.Columns()) {
				unread = true
			}
		}
	})
	if !unread {
		t.Fatalf("no hash join whose build side carries an unread column:\n%s", optimizer.Explain(plan))
	}
	ctx := context.Background()
	run := func(i int) {
		salary := datum.NewInt(int64(10400 + 100*(i%4)))
		if _, err := exec.RunParams(ctx, db, plan, []datum.Datum{salary}); err != nil {
			t.Fatal(err)
		}
	}
	run(0) // lazy set-up outside the measurement
	const runs = 40
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run(i)
	}
	runtime.ReadMemStats(&after)
	perOp := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d B/op, %d allocs/op", perOp, (after.Mallocs-before.Mallocs)/runs)
	if perOp >= analyticHashBuildAllocBudget {
		t.Fatalf("analytic statement allocates %d B per execution, budget %d\n%s",
			perOp, analyticHashBuildAllocBudget, optimizer.Explain(plan))
	}
}

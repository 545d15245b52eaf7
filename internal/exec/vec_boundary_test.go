package exec_test

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/optimizer"
	"repro/internal/qtree"
	"repro/internal/storage"
	"repro/internal/testkit"
)

// boundarySizes puts EMPLOYEES just past two full default batches and
// empties JOB_HISTORY entirely, so scans cross the 1024-row boundary and
// every operator also sees a zero-row input.
func boundarySizes() testkit.Sizes {
	return testkit.Sizes{
		Employees:   2600,
		Departments: 30,
		Locations:   8,
		JobHistory:  0,
		Jobs:        10,
		Sales:       500,
		Accounts:    40,
	}
}

// boundaryQueries cover the vectorized operators at batch edges: filters
// that keep everything, cut everything, or select sparsely; aggregation
// (grouped and scalar-over-empty); hash joins including an empty build
// side; distinct; set operations; ROWNUM limits that cut mid-batch; and
// expression evaluation with NULLs, concatenation and LIKE.
var boundaryQueries = []string{
	`SELECT e.emp_id, e.salary FROM employees e WHERE e.salary > 3000`,
	`SELECT e.emp_id FROM employees e WHERE e.emp_id < 0`,
	`SELECT e.emp_id FROM employees e WHERE e.emp_id = 1025`,
	`SELECT j.emp_id FROM job_history j WHERE j.dept_id > 0`,
	`SELECT COUNT(*), MAX(j.dept_id) FROM job_history j`,
	`SELECT e.dept_id, COUNT(*), AVG(e.salary) FROM employees e GROUP BY e.dept_id`,
	`SELECT e.employee_name, d.department_name FROM employees e, departments d
	 WHERE e.dept_id = d.dept_id AND e.salary > 2000`,
	`SELECT e.emp_id FROM employees e, job_history j WHERE e.emp_id = j.emp_id`,
	`SELECT e.emp_id FROM employees e WHERE e.dept_id NOT IN (SELECT d.loc_id FROM departments d)`,
	`SELECT e.emp_id FROM employees e
	 WHERE EXISTS (SELECT 1 FROM departments d WHERE d.dept_id = e.dept_id)`,
	`SELECT DISTINCT e.dept_id FROM employees e`,
	`SELECT e.dept_id FROM employees e MINUS SELECT d.loc_id FROM departments d`,
	`SELECT e.employee_name || '!', e.salary + 1 FROM employees e
	 WHERE e.dept_id IS NULL OR e.salary > 1000`,
	`SELECT e.emp_id FROM employees e WHERE e.employee_name LIKE '%a%'`,
	`SELECT v.emp_id FROM (SELECT e.emp_id emp_id FROM employees e ORDER BY e.emp_id) v
	 WHERE rownum <= 1500`,
	`SELECT v.emp_id FROM (SELECT e.emp_id emp_id FROM employees e ORDER BY e.emp_id) v
	 WHERE rownum <= 7`,
	// Result sizes on either side of a growth step (16, 64, 256), through
	// an index range, a sort and a join output, at every capacity below.
	`SELECT e.emp_id, e.salary FROM employees e WHERE e.emp_id <= 16`,
	`SELECT e.emp_id, e.salary FROM employees e WHERE e.emp_id <= 17`,
	`SELECT v.emp_id FROM (SELECT e.emp_id emp_id FROM employees e ORDER BY e.emp_id) v
	 WHERE rownum <= 65`,
	`SELECT e.emp_id, d.department_name FROM employees e, departments d
	 WHERE e.dept_id = d.dept_id AND e.emp_id <= 257`,
}

// boundaryBatchSizes are the edge capacities: single-row batches, one off
// either side of every growth step (16, 64, 256; see Batch.grow) and of the
// default cap, and the cap itself.
var boundaryBatchSizes = []int{1, 2, 3, 15, 16, 17, 63, 64, 65, 255, 256, 257, 1023, 1024, 1025}

func planSQL(t testing.TB, db *storage.DB, sql string) *optimizer.Plan {
	t.Helper()
	q := qtree.MustBind(sql, db.Catalog)
	plan, err := optimizer.New(db.Catalog).Optimize(q)
	if err != nil {
		t.Fatalf("optimize: %v\nsql: %s", err, sql)
	}
	return plan
}

func sortedRows(res *exec.Result) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		parts := make([]string, len(r))
		for j, d := range r {
			parts[j] = d.String()
		}
		out[i] = strings.Join(parts, "|")
	}
	sort.Strings(out)
	return out
}

// TestBatchBoundaries runs every boundary query at every edge batch size
// and requires results identical to the row engine's. Any off-by-one in
// batch fill, selection-vector refinement, mid-batch limit cuts or
// empty-input handling shows up as a row diff.
func TestBatchBoundaries(t *testing.T) {
	exec.PoisonDeadSlots(t)
	db := testkit.NewDB(boundarySizes(), 3)
	ctx := context.Background()
	for qi, sql := range boundaryQueries {
		plan := planSQL(t, db, sql)
		ref, err := exec.RunWith(ctx, db, plan, exec.Options{RowExec: true})
		if err != nil {
			t.Fatalf("row engine: %v\nsql: %s", err, sql)
		}
		want := sortedRows(ref)
		for _, bs := range boundaryBatchSizes {
			t.Run(fmt.Sprintf("q%d/bs%d", qi, bs), func(t *testing.T) {
				res, err := exec.RunWith(ctx, db, plan, exec.Options{BatchSize: bs})
				if err != nil {
					t.Fatalf("batch engine (size %d): %v\nsql: %s", bs, err, sql)
				}
				got := sortedRows(res)
				if len(got) != len(want) {
					t.Fatalf("batch size %d: %d rows, row engine %d\nsql: %s",
						bs, len(got), len(want), sql)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("batch size %d: row %d = %q, row engine %q\nsql: %s",
							bs, i, got[i], want[i], sql)
					}
				}
			})
		}
	}
}

// probeFilterCases put a filter on the IndexScan that the batch engine's
// nested-loops join inlines and evaluates batch-wise over each probe's
// candidates. The optimizer keeps predicates that read the left side in the
// join's On and predicates with subqueries in a Filter above the join, so
// two cases copy such a predicate into the probe filter by hand ("on",
// "filter"); the copy leaves the query's result unchanged. Their database
// has two jobs, so one EMP_JOB probe returns about 1300 candidates, more
// than DefaultBatchSize.
var probeFilterCases = []struct {
	name, sql string
	copyFrom  string // "on" or "filter": predicates copied into the probe filter
	minRows   int    // the case is meaningless below this many result rows
	wantErr   bool
}{
	{name: "rowid", sql: `SELECT d.dept_id, s.sale_id FROM departments d, sales s
	  WHERE s.dept_id = d.dept_id AND s.rowid > 250`},
	{name: "left-column", sql: `SELECT d.dept_id, s.sale_id FROM departments d, sales s
	  WHERE s.dept_id = d.dept_id AND s.amount > d.budget / 1000`, copyFrom: "on"},
	{name: "case-fallback", sql: `SELECT j.job_id, e.emp_id FROM jobs j, employees e
	  WHERE e.job_id = j.job_id AND j.job_id + 0 = 1 AND CASE WHEN e.salary > 2000 THEN 1 ELSE 0 END = 1`,
		minRows: exec.DefaultBatchSize + 1},
	{name: "subquery-fallback", sql: `SELECT d.dept_id, s.sale_id FROM departments d, sales s
	  WHERE s.dept_id = d.dept_id AND s.amount > (SELECT AVG(s2.amount) FROM sales s2)`, copyFrom: "filter"},
	{name: "wide-probe", sql: `SELECT j.job_id, e.emp_id, e.salary FROM jobs j, employees e
	  WHERE e.job_id = j.job_id AND j.job_id + 0 = 1 AND e.salary > 2000 AND e.emp_id > 7`,
		minRows: exec.DefaultBatchSize + 1},
	{name: "division-by-zero", sql: `SELECT d.dept_id, s.sale_id FROM departments d, sales s
	  WHERE s.dept_id = d.dept_id AND s.amount / (s.sale_id - 7) > 0`, wantErr: true},
}

// probeJoin returns the plan's inlined index probe: a lateral inner join
// whose right side is a bare IndexScan.
func probeJoin(plan *optimizer.Plan) (*optimizer.Join, *optimizer.IndexScan) {
	var j *optimizer.Join
	var rn *optimizer.IndexScan
	optimizer.Walk(plan.Root, func(n optimizer.PlanNode) {
		if v, ok := n.(*optimizer.Join); ok && v.RLateral && v.Kind == qtree.JoinInner {
			if r, ok := v.R.(*optimizer.IndexScan); ok && j == nil {
				j, rn = v, r
			}
		}
	})
	return j, rn
}

// TestBatchBoundariesProbeFilter runs each probe-filter case on the row
// engine and on the batch engine at caps 1, 16 and 1024. Results, or the
// error raised, must be identical, and so must the inlined IndexScan's
// EXPLAIN ANALYZE opens and rows.
func TestBatchBoundariesProbeFilter(t *testing.T) {
	exec.PoisonDeadSlots(t)
	sizes := boundarySizes()
	sizes.Jobs = 2
	db := testkit.NewDB(sizes, 3)
	ctx := context.Background()
	nl := optimizer.MethodNL
	for _, pc := range probeFilterCases {
		t.Run(pc.name, func(t *testing.T) {
			p := optimizer.New(db.Catalog)
			p.ForceJoin = &nl
			plan, err := p.Optimize(qtree.MustBind(pc.sql, db.Catalog))
			if err != nil {
				t.Fatal(err)
			}
			j, rn := probeJoin(plan)
			if j == nil {
				t.Fatalf("no inlined index probe in plan:\n%s", optimizer.Explain(plan))
			}
			switch pc.copyFrom {
			case "on":
				rn.Filter = append(rn.Filter, j.On...)
			case "filter":
				optimizer.Walk(plan.Root, func(n optimizer.PlanNode) {
					if f, ok := n.(*optimizer.Filter); ok {
						rn.Filter = append(rn.Filter, f.Preds...)
					}
				})
			}
			if len(rn.Filter) == 0 {
				t.Fatalf("probe has no filter:\n%s", optimizer.Explain(plan))
			}
			optimizer.MarkLive(plan) // the probe filter may now read more columns
			ref, refSt, refErr := exec.RunAnalyzeWith(ctx, db, plan, exec.Options{RowExec: true})
			if pc.wantErr != (refErr != nil) {
				t.Fatalf("row engine error = %v, want error %v\n%s", refErr, pc.wantErr, optimizer.Explain(plan))
			}
			var want []string
			if refErr == nil {
				want = sortedRows(ref)
				if len(want) < pc.minRows {
					t.Fatalf("%d rows, want >= %d", len(want), pc.minRows)
				}
			}
			for _, bs := range []int{1, 16, 1024} {
				res, st, err := exec.RunAnalyzeWith(ctx, db, plan, exec.Options{BatchSize: bs})
				if refErr != nil {
					if err == nil || err.Error() != refErr.Error() {
						t.Fatalf("batch size %d: error %v, row engine %v", bs, err, refErr)
					}
					continue
				}
				if err != nil {
					t.Fatalf("batch size %d: %v", bs, err)
				}
				if got := sortedRows(res); strings.Join(got, "\n") != strings.Join(want, "\n") {
					t.Fatalf("batch size %d: %d rows differ from the row engine's %d", bs, len(got), len(want))
				}
				if b, r := st.Ops[rn], refSt.Ops[rn]; b.Opens != r.Opens || b.Rows != r.Rows {
					t.Fatalf("batch size %d: probe opens/rows %d/%d, row engine %d/%d",
						bs, b.Opens, b.Rows, r.Opens, r.Rows)
				}
			}
		})
	}
}

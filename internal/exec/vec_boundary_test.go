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

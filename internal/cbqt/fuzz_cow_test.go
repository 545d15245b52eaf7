package cbqt

import (
	"testing"

	"repro/internal/qtree"
	"repro/internal/testkit"
)

// FuzzCOWClone cross-checks the copy-on-write state memo against the legacy
// full-clone evaluation on arbitrary SQL: both modes must reach the same
// transformed query, the same winner cost, the same state count — or fail
// with the same error. The seed corpus covers the paper's Table 2 subquery
// family plus the single-table shapes the heuristics consume; the fuzzer
// mutates from there. Options.Check arms the aliasing checker and the base
// tree snapshot on every evaluated state, so a sharing violation fails the
// COW run outright rather than silently diverging.
func FuzzCOWClone(f *testing.F) {
	seeds := []string{
		// Table 2 flavours: correlated EXISTS / NOT EXISTS over two and
		// three tables, none consumed by the imperative heuristics.
		`SELECT e.employee_name, d.department_name FROM employees e, departments d
WHERE e.dept_id = d.dept_id AND
  EXISTS (SELECT 1 FROM sales s, departments ds WHERE s.dept_id = ds.dept_id AND s.emp_id = e.emp_id AND s.amount > 400)`,
		`SELECT e.employee_name FROM employees e
WHERE NOT EXISTS (SELECT 1 FROM job_history j, jobs jb WHERE j.job_id = jb.job_id AND j.emp_id = e.emp_id AND j.start_date > '19960101')`,
		`SELECT e.employee_name FROM employees e, departments d
WHERE e.dept_id = d.dept_id AND
  EXISTS (SELECT 1 FROM job_history h, departments dh, locations lh WHERE h.dept_id = dh.dept_id AND dh.loc_id = lh.loc_id AND h.emp_id = e.emp_id) AND
  NOT EXISTS (SELECT 1 FROM sales s WHERE s.emp_id = e.emp_id AND s.amount > 900)`,
		// Single-table subqueries (heuristic unnesting), views and grouping.
		`SELECT e.employee_name FROM employees e WHERE e.dept_id IN (SELECT d.dept_id FROM departments d WHERE d.loc_id = 3)`,
		`SELECT v.dept_id, v.avg_sal FROM (SELECT e.dept_id, AVG(e.salary) avg_sal FROM employees e GROUP BY e.dept_id) v WHERE v.avg_sal > 100`,
		`SELECT e.employee_name FROM employees e WHERE e.salary > (SELECT AVG(x.salary) FROM employees x WHERE x.dept_id = e.dept_id)`,
		`SELECT e.emp_id FROM employees e UNION ALL SELECT j.emp_id FROM job_history j`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	db := testkit.NewDB(testkit.SmallSizes(), 7)

	f.Fuzz(func(t *testing.T, sql string) {
		if len(sql) > 4096 {
			t.Skip("oversized input")
		}
		qFull, err := qtree.BindSQL(sql, db.Catalog)
		if err != nil {
			t.Skip("unbindable input")
		}
		qCOW, err := qtree.BindSQL(sql, db.Catalog)
		if err != nil {
			t.Skip("unbindable input")
		}

		opts := DefaultOptions()
		opts.Parallelism = 1
		opts.Check = true

		fullCloneStates = true
		resFull, errFull := (&Optimizer{Cat: db.Catalog, Opts: opts}).Optimize(qFull)
		fullCloneStates = false
		resCOW, errCOW := (&Optimizer{Cat: db.Catalog, Opts: opts}).Optimize(qCOW)

		if (errFull == nil) != (errCOW == nil) {
			t.Fatalf("error divergence\nsql: %s\nfull-clone err: %v\ncow err:        %v", sql, errFull, errCOW)
		}
		if errFull != nil {
			if errFull.Error() != errCOW.Error() {
				t.Fatalf("different errors\nsql: %s\nfull-clone: %v\ncow:        %v", sql, errFull, errCOW)
			}
			return
		}
		if got, want := resCOW.Query.SQL(), resFull.Query.SQL(); got != want {
			t.Fatalf("transformed query divergence\nsql: %s\ncow:        %s\nfull-clone: %s", sql, got, want)
		}
		if got, want := resCOW.Plan.Cost.Total, resFull.Plan.Cost.Total; got != want {
			t.Fatalf("winner cost divergence: cow %v, full-clone %v\nsql: %s", got, want, sql)
		}
		if got, want := resCOW.Stats.StatesEvaluated, resFull.Stats.StatesEvaluated; got != want {
			t.Fatalf("state count divergence: cow %d, full-clone %d\nsql: %s", got, want, sql)
		}
	})
}

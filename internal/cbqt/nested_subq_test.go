package cbqt

import (
	"context"
	"sort"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/obsv"
	"repro/internal/qtree"
	"repro/internal/testkit"
)

// TestSubqueryInLeftOperand: a subquery's left operands are expressions of
// the block that holds it. A scalar subquery in an ALL subquery's left
// operand is a block of the statement like any other: with the search on and
// off, and on both engines, the statement returns the rows of a formulation
// that joins the scalar subquery's table instead, and its display SQL names
// the nested item by its alias. View merging reaches a left operand: it
// substitutes the view's column there, groups by a column it holds, and a
// copy of a view column holding a subquery whose left operand holds another
// gives the nested block fresh from IDs too; predicate pull-up maps the
// correlation of a subquery nested there; an aggregate or a window function
// in a left operand is planned; a subquery two blocks in reads a column of
// the outermost block. Each such statement returns the
// rows of its untransformed plan, with the checker on and off, and no rule
// or heuristic phase fails.
func TestSubqueryInLeftOperand(t *testing.T) {
	db := testkit.NewDB(testkit.SmallSizes(), 7)
	const nested = `SELECT e.emp_id FROM employees e
WHERE (SELECT MAX(d.dept_id) FROM departments d WHERE d.dept_id = e.dept_id) > ALL (SELECT j.emp_id FROM job_history j WHERE j.emp_id < 3)`
	// dept_id is the departments key, so the scalar subquery is the
	// employee's department ID, and NULL without one. The ALL set is not
	// empty, so a NULL fails the comparison, as a failed join does.
	const flat = `SELECT e.emp_id FROM employees e, departments d
WHERE d.dept_id = e.dept_id AND d.dept_id > ALL (SELECT j.emp_id FROM job_history j WHERE j.emp_id < 3)`
	if set, _ := runCBQT(t, db, `SELECT j.emp_id FROM job_history j WHERE j.emp_id < 3`, disabledOptions()); len(set) == 0 {
		t.Fatal("the ALL set is empty, so the two formulations differ")
	}
	want, _ := runCBQT(t, db, flat, disabledOptions())
	if len(want) == 0 {
		t.Fatal("the flat formulation returns no rows")
	}

	for _, mode := range []struct {
		name string
		opts Options
	}{{"cost", DefaultOptions()}, {"off", disabledOptions()}} {
		res, err := (&Optimizer{Cat: db.Catalog, Opts: mode.opts}).Optimize(qtree.MustBind(nested, db.Catalog))
		if err != nil {
			t.Fatalf("%s: %v", mode.name, err)
		}
		if sql := res.Query.SQL(); !strings.Contains(sql, "FROM DEPARTMENTS d WHERE (d.DEPT_ID = e.DEPT_ID)") {
			t.Errorf("%s: display SQL does not name the nested item d: %s", mode.name, sql)
		}
		for _, rowExec := range []bool{false, true} {
			er, err := exec.RunWith(context.Background(), db, res.Plan, exec.Options{RowExec: rowExec})
			if err != nil {
				t.Fatalf("%s, RowExec=%v: %v\ntransformed: %s", mode.name, rowExec, err, res.Query.SQL())
			}
			got := make([]string, len(er.Rows))
			for i, r := range er.Rows {
				got[i] = r[0].String()
			}
			sort.Strings(got)
			if strings.Join(got, ",") != strings.Join(want, ",") {
				t.Errorf("%s, RowExec=%v: %d rows, the flat formulation %d\ntransformed: %s",
					mode.name, rowExec, len(got), len(want), res.Query.SQL())
			}
		}
	}

	for _, src := range []string{
		// The view's column in the left operand must follow the merge.
		`SELECT v.n FROM (SELECT e.employee_name n, e.dept_id did FROM employees e WHERE e.salary > 1000) v
WHERE v.did > ALL (SELECT d.dept_id FROM departments d WHERE d.loc_id = 1)`,
		// Each of the two copies of f copies the scalar subquery too.
		`SELECT v.f, v.f + 1 FROM (SELECT CASE WHEN (SELECT MAX(d.dept_id) FROM departments d WHERE d.dept_id < e.dept_id)
> ALL (SELECT d2.dept_id FROM departments d2 WHERE d2.loc_id = 1) THEN 1 ELSE 0 END f FROM employees e) v`,
		// An aggregate in a left operand makes the block aggregate, and
		// the plan computes it.
		`SELECT CASE WHEN SUM(e.salary) > ALL (SELECT d.budget FROM departments d) THEN 1 ELSE 0 END x FROM employees e`,
		`SELECT e.dept_id, SUM(e.salary) s FROM employees e GROUP BY e.dept_id
HAVING SUM(e.salary) > ANY (SELECT d.budget / 1000 FROM departments d)`,
		// So does a window function.
		`SELECT e.emp_id, CASE WHEN ROW_NUMBER() OVER (ORDER BY e.emp_id) IN (SELECT d.dept_id FROM departments d)
THEN 1 ELSE 0 END f FROM employees e WHERE e.emp_id < 6`,
		// Pulling the predicate out of the view maps the nested subquery's
		// correlation to the view's outputs.
		`SELECT v.emp_id FROM (SELECT e.emp_id, e.salary FROM employees e
WHERE (SELECT MAX(d.dept_id) FROM departments d WHERE d.dept_id < e.dept_id) > ALL (SELECT j.emp_id FROM job_history j WHERE j.emp_id < 3)
ORDER BY e.salary, e.emp_id) v WHERE ROWNUM <= 5`,
		// A subquery nested in a subquery names a column two blocks out:
		// the inner subplan lists it among its correlations.
		`SELECT e.emp_id, (SELECT COUNT(*) FROM departments d
WHERE EXISTS (SELECT 1 FROM locations l WHERE l.loc_id = d.loc_id AND d.dept_id = e.dept_id)) n FROM employees e`,
		`SELECT e.emp_id, (SELECT COUNT(*) FROM departments d
WHERE EXISTS (SELECT 1 FROM locations l WHERE l.loc_id = d.loc_id AND d.dept_id < e.dept_id)) n FROM employees e`,
		// Merging the group-by view groups by the column in the left operand.
		`SELECT e.emp_id, CASE WHEN e.dept_id IN (SELECT d.dept_id FROM departments d WHERE d.loc_id = 1) THEN 1 ELSE 0 END f, v.total
FROM employees e, (SELECT s.emp_id, SUM(s.amount) total FROM sales s GROUP BY s.emp_id) v WHERE e.emp_id = v.emp_id`,
	} {
		want := runOrdered(t, db, qtree.MustBind(src, db.Catalog))
		sort.Strings(want)
		for _, mode := range []struct {
			name string
			opts Options
		}{{"cost", DefaultOptions()}, {"off", disabledOptions()}} {
			for _, checked := range []bool{true, false} {
				opts := mode.opts
				opts.Check, opts.Trace = checked, true
				res, err := (&Optimizer{Cat: db.Catalog, Opts: opts}).Optimize(qtree.MustBind(src, db.Catalog))
				if err != nil {
					t.Fatalf("%s, Check=%v: %v\nsql: %s", mode.name, checked, err, src)
				}
				for _, te := range res.Stats.TransformErrors {
					t.Errorf("%s, Check=%v: %v\nsql: %s", mode.name, checked, te, src)
				}
				if ev := res.Stats.Events; len(ev) == 0 || ev[0].Ev != obsv.EvHeuristics || ev[0].Outcome != "ok" {
					t.Errorf("%s, Check=%v: the heuristic phase did not end ok: %v\nsql: %s", mode.name, checked, ev, src)
				}
				for _, rowExec := range []bool{false, true} {
					er, err := exec.RunWith(context.Background(), db, res.Plan, exec.Options{RowExec: rowExec})
					if err != nil {
						t.Fatalf("%s, Check=%v, RowExec=%v: %v\ntransformed: %s", mode.name, checked, rowExec, err, res.Query.SQL())
					}
					got := make([]string, len(er.Rows))
					for i, r := range er.Rows {
						parts := make([]string, len(r))
						for j, d := range r {
							parts[j] = d.String()
						}
						got[i] = strings.Join(parts, "|")
					}
					sort.Strings(got)
					if strings.Join(got, ",") != strings.Join(want, ",") {
						t.Errorf("%s, Check=%v, RowExec=%v: %d rows, the untransformed plan %d\ntransformed: %s",
							mode.name, checked, rowExec, len(got), len(want), res.Query.SQL())
					}
				}
			}
		}
	}
}

// TestSubqueryCorrelatedOnGroupingColumn: a grouped block's select list or
// HAVING may hold a subquery correlated on a grouping column; after the
// aggregation the plan binds that reference to the aggregate's grouping
// output. With the search on and off, the checker on
// and off, and on both engines, each statement returns the rows of a
// formulation that groups in a view and correlates on the view's column.
func TestSubqueryCorrelatedOnGroupingColumn(t *testing.T) {
	db := testkit.NewDB(testkit.SmallSizes(), 7)
	const grouped = `(SELECT e.dept_id did, COUNT(*) c FROM employees e GROUP BY e.dept_id) v`
	for _, tc := range []struct{ src, want string }{
		{`SELECT e.dept_id, (SELECT MAX(d.budget) FROM departments d WHERE d.dept_id = e.dept_id) mb, COUNT(*)
FROM employees e GROUP BY e.dept_id`,
			`SELECT v.did, (SELECT MAX(d.budget) FROM departments d WHERE d.dept_id = v.did) mb, v.c FROM ` + grouped},
		{`SELECT e.dept_id, COUNT(*) FROM employees e GROUP BY e.dept_id
HAVING COUNT(*) > (SELECT MAX(d.loc_id) FROM departments d WHERE d.dept_id = e.dept_id)`,
			`SELECT v.did, v.c FROM ` + grouped + ` WHERE v.c > (SELECT MAX(d.loc_id) FROM departments d WHERE d.dept_id = v.did)`},
		// The left operand's aggregate and the block's correlation both
		// read the aggregate's output.
		{`SELECT e.dept_id, COUNT(*) FROM employees e GROUP BY e.dept_id
HAVING SUM(e.salary) / 50 > ALL (SELECT d.budget FROM departments d WHERE d.dept_id = e.dept_id)`,
			`SELECT v.did, v.c FROM (SELECT e.dept_id did, COUNT(*) c, SUM(e.salary) s FROM employees e GROUP BY e.dept_id) v
WHERE v.s / 50 > ALL (SELECT d.budget FROM departments d WHERE d.dept_id = v.did)`},
	} {
		want := runOrdered(t, db, qtree.MustBind(tc.want, db.Catalog))
		sort.Strings(want)
		if len(want) == 0 {
			t.Fatalf("the reference returns no rows: %s", tc.want)
		}
		for _, mode := range []struct {
			name string
			opts Options
		}{{"cost", DefaultOptions()}, {"off", disabledOptions()}} {
			for _, checked := range []bool{true, false} {
				opts := mode.opts
				opts.Check = checked
				res, err := (&Optimizer{Cat: db.Catalog, Opts: opts}).Optimize(qtree.MustBind(tc.src, db.Catalog))
				if err != nil {
					t.Fatalf("%s, Check=%v: %v\nsql: %s", mode.name, checked, err, tc.src)
				}
				for _, rowExec := range []bool{false, true} {
					er, err := exec.RunWith(context.Background(), db, res.Plan, exec.Options{RowExec: rowExec})
					if err != nil {
						t.Fatalf("%s, Check=%v, RowExec=%v: %v\ntransformed: %s", mode.name, checked, rowExec, err, res.Query.SQL())
					}
					got := make([]string, len(er.Rows))
					for i, r := range er.Rows {
						parts := make([]string, len(r))
						for j, d := range r {
							parts[j] = d.String()
						}
						got[i] = strings.Join(parts, "|")
					}
					sort.Strings(got)
					if strings.Join(got, ",") != strings.Join(want, ",") {
						t.Errorf("%s, Check=%v, RowExec=%v: rows %v, the view formulation %v\ntransformed: %s",
							mode.name, checked, rowExec, got, want, res.Query.SQL())
					}
				}
			}
		}
	}
}

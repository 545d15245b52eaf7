package cbqt

import (
	"context"
	"sort"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/qtree"
	"repro/internal/testkit"
)

// TestSubqueryInLeftOperand: a scalar subquery in an ALL subquery's left
// operand is a block of the statement like any other. With the search on and
// off, and on both engines, the statement returns the rows of a formulation
// that joins the scalar subquery's table instead, and its display SQL names
// the nested item by its alias.
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
}

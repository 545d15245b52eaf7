package optimizer

import (
	"slices"
	"testing"

	"repro/internal/qtree"
)

// allNodes lists every operator of a plan, subplans included.
func allNodes(p *Plan) []PlanNode {
	var out []PlanNode
	add := func(n PlanNode) { out = append(out, n) }
	Walk(p.Root, add)
	for _, sp := range p.Subplans {
		Walk(sp.Root, add)
	}
	return out
}

// TestMarkLiveRecordsExecutablePlansOnly pins that every operator of an
// executable plan, subplans included, carries a liveness record, and that a
// cost-only plan carries none.
func TestMarkLiveRecordsExecutablePlansOnly(t *testing.T) {
	db := testDB(t)
	src := `SELECT e.employee_name FROM employees e
	  WHERE e.salary > (SELECT AVG(x.salary) FROM employees x WHERE x.dept_id = e.dept_id)`
	plan := optimize(t, db, src)
	if len(plan.Subplans) == 0 {
		t.Fatalf("want a correlated subplan:\n%s", Explain(plan))
	}
	for _, n := range allNodes(plan) {
		if n.Live() == nil {
			t.Errorf("%s has no liveness record", n.Label())
		}
	}
	p := New(db.Catalog)
	p.CostOnly = true
	costOnly, err := p.Optimize(qtree.MustBind(src, db.Catalog))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range allNodes(costOnly) {
		if n.Live() != nil {
			t.Errorf("cost-only %s carries a liveness record", n.Label())
		}
	}
}

// TestMarkLiveSlots pins the records of three scans: one whose output
// nothing reads (recorded, with no live slot), one split by its filter for
// late materialization, and one whose subquery-only column stays live.
func TestMarkLiveSlots(t *testing.T) {
	db := testDB(t)
	scan := func(p *Plan) *SeqScan {
		for _, n := range allNodes(p) {
			if s, ok := n.(*SeqScan); ok && s.Table.Name == "EMPLOYEES" {
				return s
			}
		}
		t.Fatalf("no EMPLOYEES scan:\n%s", Explain(p))
		return nil
	}
	// EMPLOYEES: EMP_ID 0, EMPLOYEE_NAME 1, DEPT_ID 2, SALARY 3, MGR_ID 4,
	// JOB_ID 5, HIRE_DATE 6, rowid 7.
	cases := []struct {
		name, sql          string
		slots, first, late []int
	}{
		{"count-star", `SELECT COUNT(*) FROM employees e`, []int{}, []int{}, []int{}},
		{"late-materialized", `SELECT e.employee_name, e.hire_date FROM employees e WHERE e.salary > 2500`,
			[]int{3, 1, 6}, []int{3}, []int{1, 6}},
		{"no-filter", `SELECT e.emp_id, e.rowid FROM employees e`, []int{0, 7}, []int{0, 7}, []int{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			live := scan(optimize(t, db, tc.sql)).Live()
			if live == nil {
				t.Fatal("no liveness record")
			}
			if !slices.Equal(live.Slots, tc.slots) || !slices.Equal(live.First(), tc.first) || !slices.Equal(live.Late(), tc.late) {
				t.Fatalf("slots %v first %v late %v, want %v %v %v",
					live.Slots, live.First(), live.Late(), tc.slots, tc.first, tc.late)
			}
		})
	}
}

// TestNodeExprsCoversWindows pins that a window's argument, partition and
// order expressions are in the one list of an operator's expressions.
func TestNodeExprsCoversWindows(t *testing.T) {
	db := testDB(t)
	plan := optimize(t, db, `SELECT e.emp_id, SUM(e.salary) OVER (PARTITION BY e.dept_id ORDER BY e.hire_date)
	  FROM employees e`)
	var win *Window
	Walk(plan.Root, func(n PlanNode) {
		if w, ok := n.(*Window); ok {
			win = w
		}
	})
	if win == nil {
		t.Fatalf("no window:\n%s", Explain(plan))
	}
	var ords []int
	NodeExprs(win, func(e qtree.Expr) {
		qtree.ExprCols(e, func(c *qtree.Col) { ords = append(ords, c.Ord) })
	})
	slices.Sort(ords)
	if want := []int{2, 3, 6}; !slices.Equal(ords, want) {
		t.Fatalf("window expressions read ordinals %v, want %v", ords, want)
	}
}

package optimizer_test

import (
	"testing"

	"repro/internal/check"
	"repro/internal/optimizer"
	"repro/internal/qtree"
	"repro/internal/testkit"
)

// TestPlanningWritesNothing: planning reads the query and writes nothing to
// it, cost-only or executable. The plan's outputs (a subplan, set-operation
// branches, an aggregate, a window) take their from IDs from the planner, so
// the query's ID counters and every block read the same after planning.
func TestPlanningWritesNothing(t *testing.T) {
	db := testkit.NewDB(testkit.SmallSizes(), 7)
	const src = `SELECT d.dept_id, COUNT(*) FROM departments d
WHERE d.dept_id IN (SELECT e.dept_id FROM employees e WHERE e.salary > 1000) GROUP BY d.dept_id
UNION ALL
SELECT e.emp_id, SUM(e.salary) OVER (PARTITION BY e.dept_id) FROM employees e`
	q := qtree.MustBind(src, db.Catalog)
	for _, costOnly := range []bool{true, false} {
		from, blk := q.IDCounters()
		snap := check.Snapshot(q)
		p := optimizer.New(db.Catalog)
		p.CostOnly = costOnly
		plan, err := p.Optimize(q)
		if err != nil {
			t.Fatal(err)
		}
		kinds := map[string]bool{}
		optimizer.Walk(plan.Root, func(n optimizer.PlanNode) {
			switch n.(type) {
			case *optimizer.Agg, *optimizer.SetNode, *optimizer.Window:
				kinds[n.Label()] = true
			}
		})
		if len(kinds) != 3 || len(plan.Subplans) != 1 {
			t.Fatalf("CostOnly=%v: the plan holds %v and %d subplans, want an aggregate, a set operation, a window and one subplan\n%s",
				costOnly, kinds, len(plan.Subplans), optimizer.Explain(plan))
		}
		if f, b := q.IDCounters(); f != from || b != blk {
			t.Errorf("CostOnly=%v: planning moved the ID counters from %d/%d to %d/%d", costOnly, from, blk, f, b)
		}
		if vs := snap.Verify(); len(vs) > 0 {
			t.Errorf("CostOnly=%v: planning changed the query: %v", costOnly, vs)
		}
	}
}

package exec_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/cbqt"
	"repro/internal/check"
	"repro/internal/exec"
	"repro/internal/optimizer"
	"repro/internal/qtree"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/testkit"
)

// liveShape is one plan shape whose batch execution fills only live slots:
// a query, how it is planned, and a check that the plan has the shape.
type liveShape struct {
	name string
	sql  string
	// plan builds the executable plan (nil: the physical optimizer alone).
	plan  func(t *testing.T, db *storage.DB, src string) *optimizer.Plan
	taken func(p *optimizer.Plan) error
}

// planCBQT runs the whole optimizer, heuristics and state search included.
func planCBQT(t *testing.T, db *storage.DB, src string) *optimizer.Plan {
	t.Helper()
	res, err := cbqt.New(db.Catalog).Optimize(qtree.MustBind(src, db.Catalog))
	if err != nil {
		t.Fatal(err)
	}
	return res.Plan
}

// planForcedMethod plans with the physical optimizer under a join hint.
func planForcedMethod(m optimizer.JoinMethod) func(*testing.T, *storage.DB, string) *optimizer.Plan {
	return func(t *testing.T, db *storage.DB, src string) *optimizer.Plan {
		t.Helper()
		p := optimizer.New(db.Catalog)
		p.ForceJoin = &m
		plan, err := p.Optimize(qtree.MustBind(src, db.Catalog))
		if err != nil {
			t.Fatal(err)
		}
		return plan
	}
}

// planCBQTForced transforms with the whole optimizer, then plans the
// transformed query again under a join hint.
func planCBQTForced(m optimizer.JoinMethod) func(*testing.T, *storage.DB, string) *optimizer.Plan {
	return func(t *testing.T, db *storage.DB, src string) *optimizer.Plan {
		t.Helper()
		res, err := cbqt.New(db.Catalog).Optimize(qtree.MustBind(src, db.Catalog))
		if err != nil {
			t.Fatal(err)
		}
		p := optimizer.New(db.Catalog)
		p.ForceJoin = &m
		plan, err := p.Optimize(res.Query)
		if err != nil {
			t.Fatal(err)
		}
		return plan
	}
}

// planLateralView makes the query's second from item, a view, lateral on
// the first item's EMP_ID, the way join predicate pushdown does.
func planLateralView(t *testing.T, db *storage.DB, src string) *optimizer.Plan {
	t.Helper()
	q := qtree.MustBind(src, db.Catalog)
	outer, view := q.Root.From[0], q.Root.From[1]
	view.Lateral = true
	vb := view.View
	vb.Where = append(vb.Where, &qtree.Bin{Op: qtree.OpEq,
		L: &qtree.Col{From: vb.From[0].ID, Ord: 0, Name: "EMP_ID"},
		R: &qtree.Col{From: outer.ID, Ord: 0, Name: "EMP_ID"}})
	plan, err := optimizer.New(db.Catalog).Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// findNode returns the first plan node (root tree, then subplans) that
// matches.
func findNode(p *optimizer.Plan, match func(optimizer.PlanNode) bool) optimizer.PlanNode {
	var found optimizer.PlanNode
	visit := func(n optimizer.PlanNode) {
		if found == nil && match(n) {
			found = n
		}
	}
	optimizer.Walk(p.Root, visit)
	for _, sp := range p.Subplans {
		optimizer.Walk(sp.Root, visit)
	}
	return found
}

// hasNode reports an error naming what when no node matches.
func hasNode(what string, match func(optimizer.PlanNode) bool) func(*optimizer.Plan) error {
	return func(p *optimizer.Plan) error {
		if findNode(p, match) == nil {
			return errors.New("no " + what)
		}
		return nil
	}
}

func isJoin(m optimizer.JoinMethod, k qtree.JoinKind) func(optimizer.PlanNode) bool {
	return func(n optimizer.PlanNode) bool {
		j, ok := n.(*optimizer.Join)
		return ok && j.Method == m && j.Kind == k
	}
}

var liveShapes = []liveShape{
	{
		name: "count-star-no-live-column",
		sql:  `SELECT COUNT(*) FROM sales s`,
		taken: hasNode("scan with no live slot", func(n optimizer.PlanNode) bool {
			s, ok := n.(*optimizer.SeqScan)
			return ok && s.Live() != nil && len(s.Live().Slots) == 0
		}),
	},
	{
		name: "count-star-filter-only",
		sql:  `SELECT COUNT(*) FROM employees e WHERE e.salary > 2500`,
		taken: hasNode("scan whose only live slot its filter reads", func(n optimizer.PlanNode) bool {
			s, ok := n.(*optimizer.SeqScan)
			return ok && s.Live() != nil && len(s.Live().Slots) == 1 && len(s.Live().Late()) == 0
		}),
	},
	{
		name: "late-materialized-scan",
		sql:  `SELECT e.employee_name, e.hire_date FROM employees e WHERE e.salary > 2500`,
		taken: hasNode("scan with late slots", func(n optimizer.PlanNode) bool {
			s, ok := n.(*optimizer.SeqScan)
			return ok && s.Live() != nil && len(s.Live().Late()) == 2
		}),
	},
	{
		// Nothing above the view reads its columns; only DISTINCT does.
		name: "distinct-over-join",
		sql: `SELECT COUNT(*) FROM (SELECT DISTINCT e.dept_id, d.loc_id FROM employees e, departments d
		      WHERE e.dept_id = d.dept_id) v`,
		taken: hasNode("distinct", func(n optimizer.PlanNode) bool { _, ok := n.(*optimizer.Distinct); return ok }),
	},
	{
		// The set operation reads its inputs by position, not by column.
		name: "union-all-of-joins",
		sql: `SELECT v.n FROM (SELECT e.employee_name n FROM employees e, departments d
		      WHERE e.dept_id = d.dept_id AND d.loc_id = 1
		      UNION ALL SELECT e.employee_name n FROM employees e, job_history j WHERE j.emp_id = e.emp_id) v`,
		taken: hasNode("UNION ALL", func(n optimizer.PlanNode) bool { _, ok := n.(*optimizer.SetNode); return ok }),
	},
	{
		name: "window-over-join",
		sql: `SELECT e.emp_id, SUM(e.salary) OVER (PARTITION BY d.loc_id) FROM employees e, departments d
		      WHERE e.dept_id = d.dept_id`,
		taken: hasNode("window", func(n optimizer.PlanNode) bool { _, ok := n.(*optimizer.Window); return ok }),
	},
	{
		name: "left-outer-nl-pads",
		sql: `SELECT e1.emp_id, e2.employee_name FROM employees e1
		      LEFT OUTER JOIN employees e2 ON e2.emp_id = e1.mgr_id WHERE e1.emp_id <= 300`,
		plan:  planForcedMethod(optimizer.MethodNL),
		taken: hasNode("left-outer index-probe join", isJoin(optimizer.MethodNL, qtree.JoinLeftOuter)),
	},
	{
		name: "left-outer-hash-pads",
		sql: `SELECT d.department_name, e.employee_name FROM departments d
		      LEFT OUTER JOIN employees e ON e.dept_id = d.dept_id AND e.salary > 2800`,
		plan:  planForcedMethod(optimizer.MethodHash),
		taken: hasNode("left-outer hash join", isJoin(optimizer.MethodHash, qtree.JoinLeftOuter)),
	},
	{
		name: "full-outer-tail",
		sql: `SELECT d.department_name, e.employee_name FROM departments d
		      FULL OUTER JOIN employees e ON d.dept_id = e.dept_id AND e.salary > 2800`,
		plan:  planForcedMethod(optimizer.MethodHash),
		taken: hasNode("full-outer hash join", isJoin(optimizer.MethodHash, qtree.JoinFullOuter)),
	},
	{
		name: "semi-join-residual-on",
		sql: `SELECT d.department_name FROM departments d WHERE EXISTS
		      (SELECT 1 FROM employees e WHERE e.dept_id = d.dept_id AND e.salary * 100 > d.budget)`,
		plan: planCBQT,
		taken: hasNode("semi join with a residual condition", func(n optimizer.PlanNode) bool {
			j, ok := n.(*optimizer.Join)
			return ok && j.Kind == qtree.JoinSemi && len(j.On) > 0
		}),
	},
	{
		// The residual reads SALARY, so the build stores that column.
		name: "hash-semi-join-residual-on",
		sql: `SELECT d.department_name FROM departments d WHERE EXISTS
		      (SELECT 1 FROM employees e WHERE e.dept_id = d.dept_id AND e.salary * 100 > d.budget)`,
		plan: planCBQTForced(optimizer.MethodHash),
		taken: hasNode("hash semi join with a residual condition", func(n optimizer.PlanNode) bool {
			j, ok := n.(*optimizer.Join)
			return ok && j.Method == optimizer.MethodHash && j.Kind == qtree.JoinSemi && len(j.On) > 0
		}),
	},
	{
		// DEPT_ID is read by the correlated subquery alone.
		name: "correlated-subquery-only-reader",
		sql: `SELECT e.employee_name FROM employees e
		      WHERE e.salary > (SELECT AVG(x.salary) FROM employees x WHERE x.dept_id = e.dept_id)`,
		taken: func(p *optimizer.Plan) error {
			for _, sp := range p.Subplans {
				if len(sp.Correlated) > 0 {
					return nil
				}
			}
			return errors.New("no correlated subplan")
		},
	},
	{
		name: "jppd-lateral-view",
		sql: `SELECT e.employee_name, v.cnt FROM employees e,
		      (SELECT COUNT(*) cnt FROM job_history j) v WHERE e.salary > 2500`,
		plan: planLateralView,
		taken: hasNode("lateral nested-loops join", func(n optimizer.PlanNode) bool {
			j, ok := n.(*optimizer.Join)
			return ok && j.RLateral
		}),
	},
}

// TestLiveSlotShapes runs each shape on the row engine, the full-width
// reference, and on the batch engine with dead slots poisoned, at batch
// caps 1, 16 and the default: a batch operator that read a slot the
// liveness pass marked dead would change the rows. Every plan must also
// pass the static checker, which verifies that each expression reads only
// live columns.
func TestLiveSlotShapes(t *testing.T) {
	exec.PoisonDeadSlots(t)
	db := testkit.NewDB(testkit.SmallSizes(), 5)
	ctx := context.Background()
	for _, sh := range liveShapes {
		t.Run(sh.name, func(t *testing.T) {
			var plan *optimizer.Plan
			if sh.plan != nil {
				plan = sh.plan(t, db, sh.sql)
			} else {
				plan = planSQL(t, db, sh.sql)
			}
			if err := sh.taken(plan); err != nil {
				t.Fatalf("shape not planned: %v\n%s", err, optimizer.Explain(plan))
			}
			if vs := check.Plan(plan); len(vs) > 0 {
				t.Fatalf("plan checker: %v\n%s", vs, optimizer.Explain(plan))
			}
			ref, err := exec.RunWith(ctx, db, plan, exec.Options{RowExec: true})
			if err != nil {
				t.Fatalf("row engine: %v", err)
			}
			want := strings.Join(sortedRows(ref), "\n")
			if len(ref.Rows) == 0 {
				t.Fatalf("no rows; the shape proves nothing\n%s", optimizer.Explain(plan))
			}
			for _, bs := range []int{1, 16, exec.DefaultBatchSize} {
				res, err := exec.RunWith(ctx, db, plan, exec.Options{BatchSize: bs})
				if err != nil {
					t.Fatalf("batch engine (cap %d): %v", bs, err)
				}
				if got := strings.Join(sortedRows(res), "\n"); got != want {
					t.Fatalf("batch engine (cap %d) differs from the row engine\nbatch:\n%.600s\nrow:\n%.600s\n%s",
						bs, got, want, optimizer.Explain(plan))
				}
			}
		})
	}
}

// TestLiveSlotDML runs UPDATE and DELETE, which locate their rows by ROWID,
// once on each engine over identical databases, and requires identical
// affected counts and identical tables afterwards.
func TestLiveSlotDML(t *testing.T) {
	exec.PoisonDeadSlots(t)
	ctx := context.Background()
	for _, tc := range []struct{ stmt, table string }{
		{`UPDATE employees e SET salary = e.salary + 1, hire_date = '20240101'
		  WHERE e.dept_id = 3 AND e.emp_id > 10`, "employees"},
		{`DELETE FROM sales s WHERE s.amount > 700 AND s.dept_id = 2`, "sales"},
	} {
		t.Run(strings.Fields(tc.stmt)[0], func(t *testing.T) {
			var tables [2]string
			var affected [2]int
			for i, opts := range []exec.Options{{RowExec: true}, {BatchSize: 16}} {
				db := testkit.NewDB(testkit.SmallSizes(), 5)
				stmt, err := sql.ParseStatement(tc.stmt)
				if err != nil {
					t.Fatal(err)
				}
				bound, err := qtree.BindStatement(stmt, db.Catalog)
				if err != nil {
					t.Fatal(err)
				}
				dml := bound.(*qtree.DMLStmt)
				res, err := cbqt.New(db.Catalog).OptimizeDML(ctx, dml)
				if err != nil {
					t.Fatal(err)
				}
				if vs := check.Plan(res.Plan); len(vs) > 0 {
					t.Fatalf("plan checker: %v\n%s", vs, optimizer.Explain(res.Plan))
				}
				out, err := exec.RunDML(ctx, db, dml, res.Plan, nil, opts)
				if err != nil {
					t.Fatal(err)
				}
				affected[i] = out.Affected
				all, err := exec.RunWith(ctx, db, planSQL(t, db, "SELECT * FROM "+tc.table+" t"), exec.Options{RowExec: true})
				if err != nil {
					t.Fatal(err)
				}
				tables[i] = strings.Join(sortedRows(all), "\n")
			}
			if affected[0] == 0 {
				t.Fatal("the statement affected no rows; it proves nothing")
			}
			if affected[0] != affected[1] || tables[0] != tables[1] {
				t.Fatalf("batch engine affected %d rows, row engine %d; tables equal: %v",
					affected[1], affected[0], tables[0] == tables[1])
			}
		})
	}
}

// TestUnrecordedPlanFillsEverySlot runs plans that never went through the
// liveness pass (cost-only planning, as a hand-built plan would be) on the
// batch engine with dead slots poisoned: every slot counts as live, so the
// rows match the row engine's.
func TestUnrecordedPlanFillsEverySlot(t *testing.T) {
	exec.PoisonDeadSlots(t)
	db := testkit.NewDB(testkit.SmallSizes(), 5)
	ctx := context.Background()
	for _, sh := range liveShapes {
		if sh.plan != nil {
			continue
		}
		t.Run(sh.name, func(t *testing.T) {
			p := optimizer.New(db.Catalog)
			p.CostOnly = true
			plan, err := p.Optimize(qtree.MustBind(sh.sql, db.Catalog))
			if err != nil {
				t.Fatal(err)
			}
			if plan.Root.Live() != nil {
				t.Fatal("a cost-only plan carries a liveness record")
			}
			ref, err := exec.RunWith(ctx, db, plan, exec.Options{RowExec: true})
			if err != nil {
				t.Fatalf("row engine: %v", err)
			}
			res, err := exec.RunWith(ctx, db, plan, exec.Options{BatchSize: 16})
			if err != nil {
				t.Fatalf("batch engine: %v", err)
			}
			if got, want := strings.Join(sortedRows(res), "\n"), strings.Join(sortedRows(ref), "\n"); got != want {
				t.Fatalf("batch engine differs from the row engine\nbatch:\n%.600s\nrow:\n%.600s", got, want)
			}
		})
	}
}

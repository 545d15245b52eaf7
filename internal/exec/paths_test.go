package exec

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/datum"
	"repro/internal/optimizer"
	"repro/internal/qtree"
	"repro/internal/storage"
	"repro/internal/testkit"
)

// pathCase is one query pinned to a code path that is reachable from SQL
// but that no generated workload query or other test drives. Each is
// planned by the physical optimizer alone — no CBQT heuristics run, so
// subqueries stay un-unnested — and executed on both engines.
type pathCase struct {
	name string
	db   *storage.DB
	sql  string
	// force restricts join method selection (nil: the cheapest plan).
	force *optimizer.JoinMethod
	// ordered compares rows in output order instead of as a multiset.
	ordered bool
	// taken returns an error when the plan or its result misses the named
	// path.
	taken func(p *optimizer.Plan, rows []Row) error
}

func pathCases() []pathCase {
	tiny := testkit.TinyDB()
	small := testkit.NewDB(testkit.SmallSizes(), 7)
	nl := optimizer.MethodNL

	// Thirteen relations in one block: more than the optimizer's DP limit
	// of twelve, so the join order comes from greedy construction.
	var from, where []string
	for i := 1; i <= 13; i++ {
		from = append(from, fmt.Sprintf("emp e%d", i))
		if i > 1 {
			where = append(where, fmt.Sprintf("e%d.emp_id = e%d.emp_id", i-1, i))
		}
	}
	greedySQL := "SELECT e1.name, e13.salary FROM " + strings.Join(from, ", ") +
		" WHERE " + strings.Join(where, " AND ")

	correlated := func(kind qtree.SubqKind) func(p *optimizer.Plan, rows []Row) error {
		return func(p *optimizer.Plan, _ []Row) error {
			for sq, sp := range p.Subplans {
				if sq.Kind == kind && len(sp.Correlated) > 0 {
					return nil
				}
			}
			return fmt.Errorf("no correlated %v subplan", kind)
		}
	}

	cases := []pathCase{
		{
			name: "greedy-join-order",
			db:   tiny,
			sql:  greedySQL,
			taken: func(p *optimizer.Plan, rows []Row) error {
				joins := 0
				optimizer.Walk(p.Root, func(n optimizer.PlanNode) {
					if _, ok := n.(*optimizer.Join); ok {
						joins++
					}
				})
				if joins != 12 || len(rows) != 6 {
					return fmt.Errorf("%d joins and %d rows, want 12 and 6", joins, len(rows))
				}
				return nil
			},
		},
		{
			// The binder admits only output-column names as set-operation
			// order keys; this one names a computed column, in second
			// position, so a key resolved to the wrong ordinal shows.
			name:    "setop-order-by-computed-column",
			db:      tiny,
			sql:     `SELECT p.pname, p.budget / 4 AS b FROM proj p UNION SELECT e.name, e.salary FROM emp e ORDER BY b DESC`,
			ordered: true,
			taken: func(p *optimizer.Plan, rows []Row) error {
				s, ok := p.Root.(*optimizer.Sort)
				if !ok {
					return fmt.Errorf("root is %s, want a sort", p.Root.Label())
				}
				if _, ok := s.Child.(*optimizer.SetNode); !ok {
					return fmt.Errorf("sort input is %s, want the set operation", s.Child.Label())
				}
				for i := 1; i < len(rows); i++ {
					if c, _ := datum.Compare(rows[i-1][1], rows[i][1]); c < 0 {
						return fmt.Errorf("row %d not in descending order of column 2", i)
					}
				}
				return nil
			},
		},
		{
			// Employees without a manager (a NULL mgr_id, and employee 1)
			// find nothing through the index and come back null-padded.
			name: "left-outer-lateral-probe-pads",
			db:   small,
			sql: `SELECT e1.emp_id, e2.emp_id FROM employees e1
			 LEFT OUTER JOIN employees e2 ON e2.emp_id = e1.mgr_id WHERE e1.emp_id <= 50`,
			taken: func(p *optimizer.Plan, rows []Row) error {
				probe := false
				optimizer.Walk(p.Root, func(n optimizer.PlanNode) {
					if j, ok := n.(*optimizer.Join); ok && j.Kind == qtree.JoinLeftOuter && canBatchNLJoin(j) {
						probe = true
					}
				})
				if !probe {
					return fmt.Errorf("no left-outer index-probe join")
				}
				for _, r := range rows {
					if r[1].IsNull() {
						return nil
					}
				}
				return fmt.Errorf("no null-padded row")
			},
		},
		{
			// The build key (sale_id + 3) / 4 is 1.0 for the first sale,
			// then 1.25: the hash table starts on the int64 fast path and
			// demotes with an entry already in it. Opening the join alone
			// shows the first build row carried over under the generic key
			// appendRowKey gives the integral value.
			name: "hash-demotes-after-entries",
			db:   small,
			sql: `SELECT e.emp_id, s.sale_id FROM employees e, sales s
			 WHERE e.emp_id + 0 = (s.sale_id + 3) / 4 AND s.sale_id <= 40`,
			taken: func(p *optimizer.Plan, rows []Row) error {
				var join *optimizer.Join
				optimizer.Walk(p.Root, func(n optimizer.PlanNode) {
					if j, ok := n.(*optimizer.Join); ok && j.Method == optimizer.MethodHash {
						join = j
					}
				})
				if join == nil || len(rows) != 10 {
					return fmt.Errorf("hash join found: %v, %d rows, want 10", join != nil, len(rows))
				}
				it, err := buildBatch(newEnv(context.Background(), small, p), join)
				if err != nil {
					return err
				}
				hj, ok := it.(*batchHashJoinIter)
				if !ok {
					return fmt.Errorf("join built as %T", it)
				}
				if err := hj.Open(nil); err != nil {
					return err
				}
				defer hj.Close()
				if hj.intMode {
					return fmt.Errorf("build table still on the int64 fast path")
				}
				if b := hj.table.get(appendRowKey(nil, Row{datum.NewFloat(1)})); len(b) != 1 || b[0] != 0 {
					return fmt.Errorf("first build row not carried over under key 1: %v", b)
				}
				return nil
			},
		},
		{
			name:  "correlated-in",
			db:    tiny,
			sql:   `SELECT e.name FROM emp e WHERE e.mgr_id IN (SELECT m.emp_id FROM emp m WHERE m.dept_id = e.dept_id)`,
			taken: correlated(qtree.SubqIn),
		},
		{
			name:  "correlated-not-in",
			db:    tiny,
			sql:   `SELECT e.name FROM emp e WHERE e.mgr_id NOT IN (SELECT m.emp_id FROM emp m WHERE m.dept_id = e.dept_id)`,
			taken: correlated(qtree.SubqNotIn),
		},
		{
			name:  "correlated-any",
			db:    tiny,
			sql:   `SELECT e.name FROM emp e WHERE e.salary > ANY (SELECT p.budget / 4 FROM proj p WHERE p.dept_id = e.dept_id)`,
			taken: correlated(qtree.SubqAnyCmp),
		},
		{
			// Employees of departments with no project compare against the
			// empty set: ALL is true for them.
			name:  "correlated-all",
			db:    tiny,
			sql:   `SELECT e.name FROM emp e WHERE e.salary < ALL (SELECT p.budget / 4 FROM proj p WHERE p.dept_id = e.dept_id)`,
			taken: correlated(qtree.SubqAllCmp),
		},
		{
			// The subquery in the ON clause reads the left side, so the
			// nested-loops join's cache key must include d.dept_id. Each
			// department keeps its employees paid above the department
			// average; hr (one employee, at the average) and empty pad.
			name: "subquery-in-join-condition",
			db:   tiny,
			sql: `SELECT d.name, e.name FROM dept d LEFT OUTER JOIN emp e
			 ON e.dept_id = d.dept_id AND e.salary > (SELECT AVG(x.salary) FROM emp x WHERE x.dept_id = d.dept_id)`,
			force: &nl,
			taken: func(p *optimizer.Plan, rows []Row) error {
				want := "'empty'|NULL,'eng'|'bob','hr'|NULL,'ops'|'cal'"
				if got := strings.Join(rowStrings(rows), ","); got != want {
					return fmt.Errorf("rows %s, want %s", got, want)
				}
				found := false
				optimizer.Walk(p.Root, func(n optimizer.PlanNode) {
					j, ok := n.(*optimizer.Join)
					if !ok || j.Method != optimizer.MethodNL {
						return
					}
					for _, c := range j.On {
						qtree.WalkExpr(c, func(x qtree.Expr) bool {
							if _, ok := x.(*qtree.Subq); ok {
								found = true
							}
							return true
						})
					}
				})
				if !found {
					return fmt.Errorf("no nested-loops join with a subquery in its condition")
				}
				return nil
			},
		},
	}

	// Quantified comparisons over uncorrelated subqueries, which run once
	// and fold their materialized rows. The binder turns = ANY into IN and
	// <> ALL into NOT IN. EMP.dept_id is 10, 10, 20, 20, 30 and NULL (fay);
	// the wanted names are worked out by hand, in sorted order.
	const (
		withNull = `(SELECT d.loc_id * 10 FROM dept d)`                   // 10, 20, 10, NULL
		tens     = `(SELECT p.dept_id FROM proj p WHERE p.proj_id < 102)` // 10, 10
		tenNull  = `(SELECT p.dept_id FROM proj p WHERE p.budget < 600)`  // 10, NULL
		noRows   = `(SELECT p.dept_id FROM proj p WHERE p.budget > 99999)`
	)
	for _, q := range []struct {
		name, pred string
		kind       qtree.SubqKind
		want       string
	}{
		{"eq-any-null-in-set", "= ANY " + withNull, qtree.SubqIn, "'ann','bob','cal','dee'"},
		{"eq-any-empty", "= ANY " + noRows, qtree.SubqIn, ""},
		{"ne-all", "<> ALL " + tens, qtree.SubqNotIn, "'cal','dee','eli'"},
		{"ne-all-null-in-set", "<> ALL " + withNull, qtree.SubqNotIn, ""},
		{"ne-all-empty", "<> ALL " + noRows, qtree.SubqNotIn, "'ann','bob','cal','dee','eli','fay'"},
		{"ne-any", "<> ANY " + tens, qtree.SubqAnyCmp, "'cal','dee','eli'"},
		{"ne-any-null-in-set", "<> ANY " + withNull, qtree.SubqAnyCmp, "'ann','bob','cal','dee','eli'"},
		{"ne-any-empty", "<> ANY " + noRows, qtree.SubqAnyCmp, ""},
		{"eq-all", "= ALL " + tens, qtree.SubqAllCmp, "'ann','bob'"},
		{"eq-all-null-in-set", "= ALL " + tenNull, qtree.SubqAllCmp, ""},
		{"eq-all-empty", "= ALL " + noRows, qtree.SubqAllCmp, "'ann','bob','cal','dee','eli','fay'"},
	} {
		cases = append(cases, pathCase{
			name: "uncorrelated-" + q.name,
			db:   tiny,
			sql:  "SELECT e.name FROM emp e WHERE e.dept_id " + q.pred,
			taken: func(p *optimizer.Plan, rows []Row) error {
				found := false
				for sq, sp := range p.Subplans {
					found = found || sq.Kind == q.kind && len(sp.Correlated) == 0
				}
				if !found {
					return fmt.Errorf("no uncorrelated %v subplan", q.kind)
				}
				if got := strings.Join(rowStrings(rows), ","); got != q.want {
					return fmt.Errorf("rows %s, want %s", got, q.want)
				}
				return nil
			},
		})
	}
	return cases
}

// TestReachablePaths runs each path case on the row engine and on the batch
// engine at batch sizes 1 and the default, requires identical rows, and
// requires the plan and result to take the case's named path.
func TestReachablePaths(t *testing.T) {
	PoisonDeadSlots(t)
	ctx := context.Background()
	for _, tc := range pathCases() {
		t.Run(tc.name, func(t *testing.T) {
			q, err := qtree.BindSQL(tc.sql, tc.db.Catalog)
			if err != nil {
				t.Fatal(err)
			}
			p := optimizer.New(tc.db.Catalog)
			p.ForceJoin = tc.force
			plan, err := p.Optimize(q)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := RunWith(ctx, tc.db, plan, Options{RowExec: true})
			if err != nil {
				t.Fatalf("row engine: %v", err)
			}
			if err := tc.taken(plan, ref.Rows); err != nil {
				t.Fatalf("path not taken: %v\n%s", err, optimizer.Explain(plan))
			}
			render := rowStrings
			if tc.ordered {
				render = func(rows []Row) []string {
					out := make([]string, len(rows))
					for i, r := range rows {
						out[i] = rowString(r)
					}
					return out
				}
			}
			want := strings.Join(render(ref.Rows), "\n")
			for _, bs := range []int{1, DefaultBatchSize} {
				res, err := RunWith(ctx, tc.db, plan, Options{BatchSize: bs})
				if err != nil {
					t.Fatalf("batch engine (size %d): %v", bs, err)
				}
				if got := strings.Join(render(res.Rows), "\n"); got != want {
					t.Errorf("batch engine (size %d) differs from row engine\nbatch:\n%s\nrow:\n%s", bs, got, want)
				}
			}
		})
	}
}

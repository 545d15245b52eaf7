package cbqt

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/optimizer"
	"repro/internal/qtree"
	"repro/internal/storage"
	"repro/internal/testkit"
)

var updateGolden = flag.Bool("update", false, "rewrite golden EXPLAIN snapshots under testdata/golden")

// table2SQL mirrors bench.Table2Query (the bench package imports cbqt, so
// the constant cannot be imported here): the paper's Table 2 setup of three
// base tables and four three-table subqueries, all valid for unnesting.
const table2SQL = `
SELECT e.employee_name, d.department_name, l.city
FROM employees e, departments d, locations l
WHERE e.dept_id = d.dept_id AND d.loc_id = l.loc_id AND
  e.emp_id NOT IN (SELECT j.emp_id FROM job_history j, jobs jb, departments d2
                   WHERE j.job_id = jb.job_id AND j.dept_id = d2.dept_id AND j.start_date > '20020101') AND
  EXISTS (SELECT 1 FROM sales s, departments d3, locations l3
          WHERE s.dept_id = d3.dept_id AND d3.loc_id = l3.loc_id AND s.emp_id = e.emp_id) AND
  NOT EXISTS (SELECT 1 FROM sales s2, jobs jb2, employees e4
              WHERE s2.emp_id = e4.emp_id AND e4.job_id = jb2.job_id AND s2.dept_id = e.dept_id AND s2.amount > 990) AND
  NOT EXISTS (SELECT 1 FROM job_history j2, departments d4, locations l4
              WHERE j2.dept_id = d4.dept_id AND d4.loc_id = l4.loc_id AND j2.emp_id = e.emp_id AND j2.start_date > '20031001')`

// TestGoldenExplain pins the transformed SQL and rendered EXPLAIN for the
// Q1 (Table 1) and Table 2 query families under every search strategy.
// Any change to transformation legality, costing or plan rendering shows up
// as a readable snapshot diff; refresh intentionally with
//
//	go test ./internal/cbqt/ -run TestGoldenExplain -update
func TestGoldenExplain(t *testing.T) {
	cases := []struct {
		name string
		db   *storage.DB
		sql  string
	}{
		{name: "q1_table1", db: testkit.TinyDB(), sql: table1SQL},
		{name: "table2", db: testkit.NewDB(testkit.SmallSizes(), 7), sql: table2SQL},
	}
	strategies := []struct {
		name  string
		strat Strategy
	}{
		{"exhaustive", StrategyExhaustive},
		{"linear", StrategyLinear},
		{"two-pass", StrategyTwoPass},
		{"iterative", StrategyIterative},
	}
	for _, tc := range cases {
		for _, st := range strategies {
			t.Run(tc.name+"/"+st.name, func(t *testing.T) {
				opts := DefaultOptions()
				opts.Strategy = st.strat
				q := qtree.MustBind(tc.sql, tc.db.Catalog)
				o := &Optimizer{Cat: tc.db.Catalog, Opts: opts}
				res, err := o.Optimize(q)
				if err != nil {
					t.Fatal(err)
				}
				got := fmt.Sprintf("-- transformed SQL --\n%s\n\n-- plan (total cost %.1f) --\n%s",
					res.Query.SQL(), res.Plan.Cost.Total, optimizer.Explain(res.Plan))
				path := filepath.Join("testdata", "golden", tc.name+"_"+st.name+".txt")
				if *updateGolden {
					if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden snapshot %s (run with -update to create): %v", path, err)
				}
				if got != string(want) {
					t.Errorf("EXPLAIN snapshot diverged from %s:\n--- got ---\n%s\n--- want ---\n%s\ndiff starts at %q",
						path, got, want, firstDiff(got, string(want)))
				}
			})
		}
	}
}

// TestGoldenExplainDegraded pins the degradation annotation format: a
// state-capped search on the Table 2 query must label its EXPLAIN output
// with the degradation reason, and the capped plan itself is part of the
// snapshot (the deterministic-prefix guarantee makes it stable).
func TestGoldenExplainDegraded(t *testing.T) {
	db := testkit.NewDB(testkit.SmallSizes(), 7)
	opts := DefaultOptions()
	opts.Strategy = StrategyExhaustive
	opts.Budget.MaxStates = 3
	q := qtree.MustBind(table2SQL, db.Catalog)
	o := &Optimizer{Cat: db.Catalog, Opts: opts}
	res, err := o.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Degraded != DegradeStateCap {
		t.Fatalf("Degraded = %q, want %q", res.Stats.Degraded, DegradeStateCap)
	}
	got := fmt.Sprintf("-- search: degraded: %s (%d states evaluated) --\n-- transformed SQL --\n%s\n\n-- plan (total cost %.1f) --\n%s",
		res.Stats.Degraded, res.Stats.StatesEvaluated,
		res.Query.SQL(), res.Plan.Cost.Total, optimizer.Explain(res.Plan))
	path := filepath.Join("testdata", "golden", "table2_degraded_statecap.txt")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden snapshot %s (run with -update to create): %v", path, err)
	}
	if got != string(want) {
		t.Errorf("degraded EXPLAIN snapshot diverged from %s:\n--- got ---\n%s\n--- want ---\n%s\ndiff starts at %q",
			path, got, want, firstDiff(got, string(want)))
	}
}

// firstDiff returns a short context window around the first byte where the
// two snapshots diverge.
func firstDiff(a, b string) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			start := i - 20
			if start < 0 {
				start = 0
			}
			end := i + 20
			if end > n {
				end = n
			}
			return strings.TrimSpace(a[start:end])
		}
	}
	return "<length mismatch>"
}

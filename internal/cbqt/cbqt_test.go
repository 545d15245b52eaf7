package cbqt

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/optimizer"
	"repro/internal/qtree"
	"repro/internal/storage"
	"repro/internal/testkit"
	"repro/internal/transform"
)

func run(t *testing.T, db *storage.DB, q *qtree.Query) []string {
	t.Helper()
	p := optimizer.New(db.Catalog)
	plan, err := p.Optimize(q)
	if err != nil {
		t.Fatalf("optimize: %v\nSQL: %s", err, q.SQL())
	}
	res, err := exec.Run(db, plan)
	if err != nil {
		t.Fatalf("run: %v\nSQL: %s", err, q.SQL())
	}
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

func runCBQT(t *testing.T, db *storage.DB, src string, opts Options) ([]string, *Result) {
	t.Helper()
	q := qtree.MustBind(src, db.Catalog)
	o := &Optimizer{Cat: db.Catalog, Opts: opts}
	res, err := o.Optimize(q)
	if err != nil {
		t.Fatalf("cbqt: %v\nSQL: %s", err, src)
	}
	er, err := exec.Run(db, res.Plan)
	if err != nil {
		t.Fatalf("exec: %v\nSQL: %s", err, res.Query.SQL())
	}
	out := make([]string, len(er.Rows))
	for i, r := range er.Rows {
		parts := make([]string, len(r))
		for j, d := range r {
			parts[j] = d.String()
		}
		out[i] = strings.Join(parts, "|")
	}
	sort.Strings(out)
	return out, res
}

// runOrdered executes the query keeping result order.
func runOrdered(t *testing.T, db *storage.DB, q *qtree.Query) []string {
	t.Helper()
	p := optimizer.New(db.Catalog)
	plan, err := p.Optimize(q)
	if err != nil {
		t.Fatalf("optimize: %v", err)
	}
	res, err := exec.Run(db, plan)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		parts := make([]string, len(r))
		for j, d := range r {
			parts[j] = d.String()
		}
		out[i] = strings.Join(parts, "|")
	}
	return out
}

// runCBQTOrdered is runCBQT without sorting.
func runCBQTOrdered(t *testing.T, db *storage.DB, src string, opts Options) ([]string, *Result) {
	t.Helper()
	q := qtree.MustBind(src, db.Catalog)
	o := &Optimizer{Cat: db.Catalog, Opts: opts}
	res, err := o.Optimize(q)
	if err != nil {
		t.Fatalf("cbqt: %v", err)
	}
	er, err := exec.Run(db, res.Plan)
	if err != nil {
		t.Fatalf("exec: %v", err)
	}
	out := make([]string, len(er.Rows))
	for i, r := range er.Rows {
		parts := make([]string, len(r))
		for j, d := range r {
			parts[j] = d.String()
		}
		out[i] = strings.Join(parts, "|")
	}
	return out, res
}

// testQueries exercise different transformations; every CBQT configuration
// must preserve their semantics.
var testQueries = []string{
	// Q1-style: correlated aggregate subquery + IN subquery.
	`SELECT e.name FROM emp e
	 WHERE e.salary > (SELECT AVG(e2.salary) FROM emp e2 WHERE e2.dept_id = e.dept_id)
	   AND e.dept_id IN (SELECT d.dept_id FROM dept d WHERE d.loc_id = 1)`,
	// Multi-table EXISTS + NOT EXISTS.
	`SELECT e.name FROM emp e
	 WHERE EXISTS (SELECT 1 FROM dept d, proj p WHERE p.dept_id = d.dept_id AND d.dept_id = e.dept_id)
	   AND NOT EXISTS (SELECT 1 FROM proj p2 WHERE p2.dept_id = e.dept_id AND p2.budget > 900)`,
	// Distinct view join (Q12 family).
	`SELECT e.name FROM emp e,
	 (SELECT DISTINCT p.dept_id FROM proj p, dept d WHERE p.dept_id = d.dept_id) v
	 WHERE e.dept_id = v.dept_id`,
	// Group-by view join.
	`SELECT e.name, v.avg_sal FROM emp e,
	 (SELECT e2.dept_id dd, AVG(e2.salary) avg_sal FROM emp e2 GROUP BY e2.dept_id) v
	 WHERE e.dept_id = v.dd AND e.salary > v.avg_sal`,
	// Aggregation over a join (GBP candidate).
	`SELECT d.name, SUM(p.budget) FROM dept d, proj p
	 WHERE d.dept_id = p.dept_id GROUP BY d.name`,
	// Set operations.
	`SELECT e.dept_id FROM emp e INTERSECT SELECT d.dept_id FROM dept d`,
	`SELECT e.dept_id FROM emp e MINUS SELECT d.loc_id FROM dept d`,
	// Disjunction.
	`SELECT e.name FROM emp e WHERE e.dept_id = 10 OR e.salary > 200`,
	// NOT IN with nulls both sides.
	`SELECT e.name FROM emp e WHERE e.dept_id NOT IN (SELECT d.loc_id FROM dept d)`,
	// Union all with common table (factorization candidate).
	`SELECT d.name, e.name FROM emp e, dept d WHERE e.dept_id = d.dept_id
	 UNION ALL SELECT d.name, p.pname FROM proj p, dept d WHERE p.dept_id = d.dept_id`,
}

func TestAllStrategiesPreserveSemantics(t *testing.T) {
	db := testkit.TinyDB()
	for _, src := range testQueries {
		baseline := run(t, db, qtree.MustBind(src, db.Catalog))
		for _, strat := range []Strategy{StrategyAuto, StrategyExhaustive, StrategyIterative, StrategyLinear, StrategyTwoPass} {
			opts := DefaultOptions()
			opts.Strategy = strat
			got, res := runCBQT(t, db, src, opts)
			if len(got) != len(baseline) || !equalStrs(got, baseline) {
				t.Errorf("strategy %v changed semantics\nsql: %s\ntransformed: %s\nwant %v\ngot  %v",
					strat, src, res.Query.SQL(), baseline, got)
			}
		}
	}
}

func TestHeuristicAndOffModesPreserveSemantics(t *testing.T) {
	db := testkit.TinyDB()
	for _, src := range testQueries {
		baseline := run(t, db, qtree.MustBind(src, db.Catalog))
		for _, mode := range []RuleMode{RuleHeuristic, RuleOff} {
			opts := DefaultOptions()
			opts.RuleModes = map[string]RuleMode{}
			for _, r := range transform.CostBasedRules() {
				opts.RuleModes[r.Name()] = mode
			}
			got, res := runCBQT(t, db, src, opts)
			if !equalStrs(got, baseline) {
				t.Errorf("mode %v changed semantics\nsql: %s\ntransformed: %s\nwant %v\ngot  %v",
					mode, src, res.Query.SQL(), baseline, got)
			}
		}
	}
}

func equalStrs(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// table1SQL has two cost-based-unnestable subqueries, like the paper's Q1
// analysis in Table 1 (each state has three query blocks, and the
// transformed form of each subquery differs structurally from the
// untransformed form, so reuse saves exactly four block optimizations).
const table1SQL = `
SELECT e.name FROM emp e
WHERE EXISTS (SELECT 1 FROM dept d, proj p
              WHERE p.dept_id = d.dept_id AND d.dept_id = e.dept_id AND p.budget > 400)
  AND EXISTS (SELECT 1 FROM proj p2, dept d2
              WHERE p2.dept_id = d2.dept_id AND p2.dept_id = e.dept_id AND d2.loc_id = 1)`

func TestTable1AnnotationReuse(t *testing.T) {
	db := testkit.TinyDB()

	measure := func(reuse bool) Stats {
		q := qtree.MustBind(table1SQL, db.Catalog)
		opts := DefaultOptions()
		opts.Strategy = StrategyExhaustive
		opts.AnnotationReuse = reuse
		opts.CostCutoff = false // isolate the reuse effect (Table 1)
		opts.SkipHeuristics = true
		opts.Rules = []transform.Rule{&transform.UnnestSubquery{}}
		o := &Optimizer{Cat: db.Catalog, Opts: opts}
		res, err := o.Optimize(q)
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats
	}

	without := measure(false)
	with := measure(true)

	if without.StatesEvaluated != 4 || with.StatesEvaluated != 4 {
		t.Fatalf("states = %d/%d, want 4 (exhaustive over 2 objects)",
			without.StatesEvaluated, with.StatesEvaluated)
	}
	// Paper Table 1: twelve query blocks across four states; reuse avoids
	// four of them (each subquery form is optimized once, not twice).
	if without.BlocksOptimized != 12 {
		t.Errorf("blocks without reuse = %d, want 12", without.BlocksOptimized)
	}
	if with.BlocksOptimized != 8 {
		t.Errorf("blocks with reuse = %d, want 8", with.BlocksOptimized)
	}
	if with.AnnotationHits != 4 {
		t.Errorf("annotation hits = %d, want 4", with.AnnotationHits)
	}
}

func TestStateCountsPerStrategy(t *testing.T) {
	db := testkit.TinyDB()
	// Two binary unnesting objects: exhaustive 4, linear 3, two-pass 2.
	counts := map[Strategy]int{
		StrategyExhaustive: 4,
		StrategyLinear:     3,
		StrategyTwoPass:    2,
	}
	for strat, want := range counts {
		q := qtree.MustBind(table1SQL, db.Catalog)
		opts := DefaultOptions()
		opts.Strategy = strat
		opts.SkipHeuristics = true
		opts.Rules = []transform.Rule{&transform.UnnestSubquery{}}
		o := &Optimizer{Cat: db.Catalog, Opts: opts}
		res, err := o.Optimize(q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.StatesEvaluated != want {
			t.Errorf("%v states = %d, want %d", strat, res.Stats.StatesEvaluated, want)
		}
	}
}

func TestIterativeBounded(t *testing.T) {
	db := testkit.TinyDB()
	q := qtree.MustBind(table1SQL, db.Catalog)
	opts := DefaultOptions()
	opts.Strategy = StrategyIterative
	opts.IterativeMaxStates = 3
	opts.SkipHeuristics = true
	opts.Rules = []transform.Rule{&transform.UnnestSubquery{}}
	o := &Optimizer{Cat: db.Catalog, Opts: opts}
	res, err := o.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.StatesEvaluated > 3+1 {
		t.Errorf("iterative exceeded bound: %d states", res.Stats.StatesEvaluated)
	}
}

func TestAutoStrategySelection(t *testing.T) {
	o := New(nil)
	if s := o.pickStrategy(3, 5); s != StrategyExhaustive {
		t.Errorf("small: %v", s)
	}
	if s := o.pickStrategy(6, 6); s != StrategyLinear {
		t.Errorf("medium: %v", s)
	}
	if s := o.pickStrategy(3, 99); s != StrategyTwoPass {
		t.Errorf("large query: %v", s)
	}
	o.Opts.Strategy = StrategyIterative
	if s := o.pickStrategy(3, 5); s != StrategyIterative {
		t.Errorf("explicit override: %v", s)
	}
}

func TestCostCutoffReducesWork(t *testing.T) {
	db := testkit.TinyDB()
	measure := func(cutoff bool) int {
		q := qtree.MustBind(table1SQL, db.Catalog)
		opts := DefaultOptions()
		opts.Strategy = StrategyExhaustive
		opts.CostCutoff = cutoff
		opts.AnnotationReuse = false
		opts.SkipHeuristics = true
		opts.Rules = []transform.Rule{&transform.UnnestSubquery{}}
		o := &Optimizer{Cat: db.Catalog, Opts: opts}
		res, err := o.Optimize(q)
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.BlocksOptimized
	}
	withCutoff := measure(true)
	withoutCutoff := measure(false)
	if withCutoff > withoutCutoff {
		t.Errorf("cut-off should never increase work: %d > %d", withCutoff, withoutCutoff)
	}
}

func TestInterleavingFindsBetterPlan(t *testing.T) {
	// With interleaving (variant 2 = unnest + merge), the framework can
	// choose the Q11 form; verify the chosen form is at least as cheap as
	// both the untransformed and the plain-unnested forms, and that
	// semantics hold.
	db := testkit.TinyDB()
	src := `SELECT e.name FROM emp e, dept d
	        WHERE e.dept_id = d.dept_id AND
	        e.salary > (SELECT AVG(e2.salary) FROM emp e2 WHERE e2.dept_id = e.dept_id)`
	baseline := run(t, db, qtree.MustBind(src, db.Catalog))
	opts := DefaultOptions()
	opts.Strategy = StrategyExhaustive
	got, res := runCBQT(t, db, src, opts)
	if !equalStrs(got, baseline) {
		t.Errorf("interleaving changed semantics:\nwant %v\ngot  %v", baseline, got)
	}
	// All three candidate forms were explored: 1 + 2 variants.
	if res.Stats.StatesByRule["subquery unnesting"] < 3 {
		t.Errorf("expected >= 3 states for interleaved unnesting, got %d",
			res.Stats.StatesByRule["subquery unnesting"])
	}
}

func TestTransformedTreeMatchesPlan(t *testing.T) {
	// The returned query must be the transformed tree, and re-optimizing it
	// must produce the same cost (directive transfer is faithful).
	db := testkit.TinyDB()
	q := qtree.MustBind(table1SQL, db.Catalog)
	o := New(db.Catalog)
	res, err := o.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	p := optimizer.New(db.Catalog)
	replan, err := p.Optimize(res.Query)
	if err != nil {
		t.Fatal(err)
	}
	if replan.Cost.Total != res.Plan.Cost.Total {
		t.Errorf("re-optimized cost %v != plan cost %v", replan.Cost.Total, res.Plan.Cost.Total)
	}
}

func TestCBQTPicksCheaperOrEqualPlans(t *testing.T) {
	// The cost of the CBQT-chosen plan must never exceed the cost of the
	// heuristics-only plan (state (0,...) is always a candidate).
	db := testkit.NewDB(testkit.SmallSizes(), 3)
	queries := []string{
		`SELECT e.employee_name FROM employees e
		 WHERE e.salary > (SELECT AVG(e2.salary) FROM employees e2 WHERE e2.dept_id = e.dept_id)`,
		`SELECT e.employee_name FROM employees e,
		 (SELECT DISTINCT j.dept_id FROM job_history j, departments d WHERE j.dept_id = d.dept_id) v
		 WHERE e.dept_id = v.dept_id`,
		`SELECT d.department_name, SUM(s.amount) FROM departments d, sales s
		 WHERE d.dept_id = s.dept_id GROUP BY d.department_name`,
	}
	for _, src := range queries {
		// Heuristics-only cost.
		qh := qtree.MustBind(src, db.Catalog)
		if err := transform.ApplyHeuristics(qh); err != nil {
			t.Fatal(err)
		}
		ph := optimizer.New(db.Catalog)
		planH, err := ph.Optimize(qh)
		if err != nil {
			t.Fatal(err)
		}
		// CBQT cost.
		qc := qtree.MustBind(src, db.Catalog)
		o := New(db.Catalog)
		res, err := o.Optimize(qc)
		if err != nil {
			t.Fatal(err)
		}
		if res.Plan.Cost.Total > planH.Cost.Total*1.0001 {
			t.Errorf("CBQT plan costs more than heuristic plan (%.1f > %.1f)\nsql: %s\nchosen: %s",
				res.Plan.Cost.Total, planH.Cost.Total, src, res.Query.SQL())
		}
	}
}

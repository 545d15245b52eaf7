package bench

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/cbqt"
	"repro/internal/obsv"
	"repro/internal/qtree"
	"repro/internal/storage"
	"repro/internal/testkit"
	"repro/internal/transform"
	"repro/internal/workload"
)

// NewBenchDB builds the benchmark database at a size where plan quality
// differences dominate wall-clock time.
func NewBenchDB(seed int64) *storage.DB {
	return testkit.NewDB(testkit.MediumSizes(), seed)
}

// workloadConfig derives a workload configuration matching the medium data
// sizes.
func workloadConfig(seed int64, n int) workload.Config {
	s := testkit.MediumSizes()
	return workload.DefaultConfig(seed, n, s.Employees, s.Departments, s.Jobs)
}

// Budget, when non-zero, applies a per-query optimization budget to every
// optimizer configuration the figure experiments build (benchrunner's
// -timeout flag). Budget-capped runs degrade to the best plan found, so
// the equivalence guard in Compare still holds.
var Budget cbqt.Budget

// Metrics, when non-nil, receives the cbqt.* and costcache.* counters of
// every optimizer the experiments build (benchrunner's -metrics flag), so
// per-experiment deltas can be dumped via obsv.Snapshot.Sub.
var Metrics *obsv.Registry

// defaultOptions is cbqt.DefaultOptions with the benchmark-wide budget and
// metrics overrides applied.
func defaultOptions() cbqt.Options {
	opts := cbqt.DefaultOptions()
	opts.Budget = Budget
	opts.Metrics = Metrics
	return opts
}

// heuristicModeOptions turn every cost-based transformation into its
// pre-CBQT heuristic decision (cost-based transformation "off", §4.1).
func heuristicModeOptions() cbqt.Options {
	opts := defaultOptions()
	opts.RuleModes = map[string]cbqt.RuleMode{}
	for _, r := range transform.CostBasedRules() {
		opts.RuleModes[r.Name()] = cbqt.RuleHeuristic
	}
	return opts
}

// Figure2 compares heuristic-decision transformation against cost-based
// transformation over the CBQT-relevant workload classes that §4.1 lists:
// subquery unnesting, group-by view merging, and join predicate pushdown.
func Figure2(ctx context.Context, db *storage.DB, queriesPerClass int, repeats int) (Report, error) {
	cfg := workloadConfig(42, 0)
	var qs []workload.Query
	for i, class := range []workload.Class{
		workload.ClassAggSubquery, workload.ClassExists, workload.ClassNotExists,
		workload.ClassNotIn, workload.ClassDistinctVw, workload.ClassGroupByVw,
	} {
		qs = append(qs, workload.GenerateClass(int64(100+i), queriesPerClass, cfg, class)...)
	}
	ms, err := CompareContext(ctx, db, qs, heuristicModeOptions(), defaultOptions(), repeats)
	if err != nil {
		return Report{}, err
	}
	return Summarize("Figure 2: CBQT vs heuristic decisions", ms), nil
}

// Figure3 compares unnesting completely disabled against cost-based
// unnesting (§4.2).
func Figure3(ctx context.Context, db *storage.DB, queriesPerClass int, repeats int) (Report, error) {
	cfg := workloadConfig(43, 0)
	var qs []workload.Query
	for i, class := range []workload.Class{
		workload.ClassAggSubquery, workload.ClassExists,
		workload.ClassNotExists, workload.ClassNotIn,
	} {
		qs = append(qs, workload.GenerateClass(int64(200+i), queriesPerClass, cfg, class)...)
	}
	off := defaultOptions()
	off.DisableMergeUnnest = true
	off.RuleModes = map[string]cbqt.RuleMode{
		(&transform.UnnestSubquery{}).Name(): cbqt.RuleOff,
	}
	ms, err := CompareContext(ctx, db, qs, off, defaultOptions(), repeats)
	if err != nil {
		return Report{}, err
	}
	return Summarize("Figure 3: unnesting disabled vs cost-based unnesting", ms), nil
}

// Figure4 compares JPPD completely disabled against cost-based JPPD
// (§4.2). Everything else stays cost-based on both sides.
func Figure4(ctx context.Context, db *storage.DB, queriesPerClass int, repeats int) (Report, error) {
	cfg := workloadConfig(44, 0)
	var qs []workload.Query
	for i, class := range []workload.Class{
		workload.ClassDistinctVw, workload.ClassGroupByVw,
	} {
		qs = append(qs, workload.GenerateClass(int64(300+i), queriesPerClass, cfg, class)...)
	}
	off := defaultOptions()
	off.Rules = rulesWithViewStrategy(&transform.ViewStrategy{NoJPPD: true})
	ms, err := CompareContext(ctx, db, qs, off, defaultOptions(), repeats)
	if err != nil {
		return Report{}, err
	}
	return Summarize("Figure 4: JPPD disabled vs cost-based JPPD", ms), nil
}

// rulesWithViewStrategy returns the default rule sequence with the view
// strategy rule replaced.
func rulesWithViewStrategy(vs *transform.ViewStrategy) []transform.Rule {
	var out []transform.Rule
	for _, r := range transform.CostBasedRules() {
		if _, ok := r.(*transform.ViewStrategy); ok {
			out = append(out, vs)
			continue
		}
		out = append(out, r)
	}
	return out
}

// GroupByPlacementExp compares GBP off against GBP on (§4.3; in Oracle the
// GBP transformation is never applied heuristically).
func GroupByPlacementExp(ctx context.Context, db *storage.DB, queries int, repeats int) (Report, error) {
	cfg := workloadConfig(45, 0)
	qs := workload.GenerateClass(400, queries, cfg, workload.ClassGBP)
	off := defaultOptions()
	off.RuleModes = map[string]cbqt.RuleMode{
		(&transform.GroupByPlacement{}).Name(): cbqt.RuleOff,
	}
	ms, err := CompareContext(ctx, db, qs, off, defaultOptions(), repeats)
	if err != nil {
		return Report{}, err
	}
	return Summarize("Section 4.3: group-by placement off vs on", ms), nil
}

// Table2Query is the paper's Table 2 setup: three base tables and four
// subqueries of NOT IN, EXISTS and NOT EXISTS types, each subquery over
// three base tables, all valid for unnesting.
const Table2Query = `
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

// Table2Row is one line of the Table 2 reproduction.
type Table2Row struct {
	Mode    string
	OptTime time.Duration
	States  int
}

// Table2 measures optimization time and number of states for the four
// search strategies on the Table 2 query, plus the heuristic mode baseline.
func Table2(db *storage.DB) ([]Table2Row, error) {
	modes := []struct {
		name string
		opts cbqt.Options
	}{
		{"Heuristic", heuristicUnnestOnly()},
		{"Two Pass", strategyUnnestOnly(cbqt.StrategyTwoPass)},
		{"Linear", strategyUnnestOnly(cbqt.StrategyLinear)},
		{"Iterative", strategyUnnestOnly(cbqt.StrategyIterative)},
		{"Exhaustive", strategyUnnestOnly(cbqt.StrategyExhaustive)},
	}
	var out []Table2Row
	for _, m := range modes {
		q, err := qtree.BindSQL(Table2Query, db.Catalog)
		if err != nil {
			return nil, err
		}
		o := &cbqt.Optimizer{Cat: db.Catalog, Opts: m.opts}
		start := time.Now()
		res, err := o.Optimize(q)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", m.name, err)
		}
		states := res.Stats.StatesEvaluated
		if m.name == "Heuristic" {
			states = 1 // the single heuristic optimization
		}
		out = append(out, Table2Row{Mode: m.name, OptTime: time.Since(start), States: states})
	}
	return out, nil
}

func strategyUnnestOnly(s cbqt.Strategy) cbqt.Options {
	opts := defaultOptions()
	opts.Strategy = s
	opts.Rules = []transform.Rule{&transform.UnnestSubquery{}}
	// The imperative merge flavour would consume the single-table
	// subqueries; Table 2 subqueries are all multi-table so the default
	// heuristics are fine.
	return opts
}

func heuristicUnnestOnly() cbqt.Options {
	opts := defaultOptions()
	opts.Rules = []transform.Rule{&transform.UnnestSubquery{}}
	opts.RuleModes = map[string]cbqt.RuleMode{
		(&transform.UnnestSubquery{}).Name(): cbqt.RuleHeuristic,
	}
	return opts
}

// FormatTable2 renders the Table 2 reproduction.
func FormatTable2(rows []Table2Row) string {
	var sb strings.Builder
	sb.WriteString("=== Table 2: optimization time per search strategy ===\n")
	fmt.Fprintf(&sb, "%-12s %12s %8s\n", "Strategy", "Optim. Time", "#States")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-12s %12s %8d\n", r.Mode, r.OptTime.Round(10*time.Microsecond), r.States)
	}
	return sb.String()
}

// Table1Result reproduces Table 1's accounting: blocks optimized with and
// without annotation reuse on a two-subquery query under exhaustive search.
type Table1Result struct {
	States             int
	BlocksWithoutReuse int
	BlocksWithReuse    int
	AnnotationHits     int
}

// Table1SQL is a Q1-like query with two unnestable subqueries.
const Table1SQL = `
SELECT e.employee_name FROM employees e
WHERE EXISTS (SELECT 1 FROM departments d, locations l
              WHERE d.loc_id = l.loc_id AND d.dept_id = e.dept_id AND l.country_id = 'US')
  AND EXISTS (SELECT 1 FROM job_history j, jobs jb
              WHERE j.job_id = jb.job_id AND j.emp_id = e.emp_id AND j.start_date > '19980101')`

// Table1 runs the annotation-reuse experiment.
func Table1(db *storage.DB) (Table1Result, error) {
	measure := func(reuse bool) (cbqt.Stats, error) {
		q, err := qtree.BindSQL(Table1SQL, db.Catalog)
		if err != nil {
			return cbqt.Stats{}, err
		}
		opts := defaultOptions()
		opts.Strategy = cbqt.StrategyExhaustive
		opts.AnnotationReuse = reuse
		opts.CostCutoff = false
		opts.SkipHeuristics = true
		opts.Rules = []transform.Rule{&transform.UnnestSubquery{}}
		o := &cbqt.Optimizer{Cat: db.Catalog, Opts: opts}
		res, err := o.Optimize(q)
		if err != nil {
			return cbqt.Stats{}, err
		}
		return res.Stats, nil
	}
	without, err := measure(false)
	if err != nil {
		return Table1Result{}, err
	}
	with, err := measure(true)
	if err != nil {
		return Table1Result{}, err
	}
	return Table1Result{
		States:             without.StatesEvaluated,
		BlocksWithoutReuse: without.BlocksOptimized,
		BlocksWithReuse:    with.BlocksOptimized,
		AnnotationHits:     with.AnnotationHits,
	}, nil
}

// FormatTable1 renders the Table 1 reproduction.
func FormatTable1(r Table1Result) string {
	var sb strings.Builder
	sb.WriteString("=== Table 1: re-use of query sub-tree cost annotations ===\n")
	fmt.Fprintf(&sb, "states (exhaustive over 2 subqueries): %d\n", r.States)
	fmt.Fprintf(&sb, "query blocks optimized without reuse:  %d\n", r.BlocksWithoutReuse)
	fmt.Fprintf(&sb, "query blocks optimized with reuse:     %d\n", r.BlocksWithReuse)
	fmt.Fprintf(&sb, "optimizations avoided by reuse:        %d\n", r.AnnotationHits)
	return sb.String()
}

// AdhocCorpus is an in-process stand-in for one cycle of the adhoc_cbqt
// benchmark workload, for sizing search changes without a server: the
// Table 2 family at four, six, eight and ten subqueries, then one text per
// CBQT-relevant workload class drawn from seed for testkit.SmallSizes data.
func AdhocCorpus(seed int64) []string {
	var out []string
	for _, n := range []int{4, 6, 8, 10} {
		out = append(out, Table2FamilyQuery(n))
	}
	s := testkit.SmallSizes()
	cfg := workload.DefaultConfig(seed, 0, s.Employees, s.Departments, s.Jobs)
	for i, class := range workload.RelevantClasses {
		out = append(out, workload.GenerateClass(seed+int64(i), 1, cfg, class)[0].SQL)
	}
	return out
}

// Table2FamilyQuery scales the paper's Table 2 setup to n subqueries: the
// same two-table outer join block, with n correlated EXISTS / NOT EXISTS
// subqueries of the Table 2 flavours (each over two or three base tables,
// all valid for cost-based unnesting and none consumed by the imperative
// heuristics, which only merge single-table subqueries).
func Table2FamilyQuery(n int) string {
	var sb strings.Builder
	sb.WriteString("SELECT e.employee_name, d.department_name\n")
	sb.WriteString("FROM employees e, departments d\n")
	sb.WriteString("WHERE e.dept_id = d.dept_id")
	for i := 0; i < n; i++ {
		switch i % 3 {
		case 0:
			fmt.Fprintf(&sb, " AND\n  EXISTS (SELECT 1 FROM sales s%d, departments ds%d"+
				" WHERE s%d.dept_id = ds%d.dept_id AND s%d.emp_id = e.emp_id AND s%d.amount > %d"+
				" AND s%d.amount + %d < 100000 AND ds%d.dept_id + 0 >= 1)",
				i, i, i, i, i, i, 400+40*i, i, 10*i, i)
		case 1:
			fmt.Fprintf(&sb, " AND\n  NOT EXISTS (SELECT 1 FROM job_history j%d, jobs jb%d"+
				" WHERE j%d.job_id = jb%d.job_id AND j%d.emp_id = e.emp_id AND j%d.start_date > '%d0101'"+
				" AND j%d.dept_id + %d >= 0 AND jb%d.job_id + 0 >= 1)",
				i, i, i, i, i, i, 1996+i, i, i, i)
		default:
			fmt.Fprintf(&sb, " AND\n  EXISTS (SELECT 1 FROM job_history h%d, departments dh%d, locations lh%d"+
				" WHERE h%d.dept_id = dh%d.dept_id AND dh%d.loc_id = lh%d.loc_id AND h%d.emp_id = e.emp_id"+
				" AND h%d.start_date > '%d0101' AND lh%d.loc_id + %d >= 0)",
				i, i, i, i, i, i, i, i, i, 1994+i, i, i)
		}
	}
	return sb.String()
}

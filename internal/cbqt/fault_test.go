package cbqt

import (
	"testing"

	"repro/internal/faultinject"
	"repro/internal/obsv"
	"repro/internal/qtree"
	"repro/internal/testkit"
	"repro/internal/transform"
	"repro/internal/workload"
)

// containsStr reports whether list contains s.
func containsStr(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

// TestFaultPanicEveryRuleDifferential is the acceptance bar for panic
// isolation: with a panic injected into any single transformation's state
// evaluation, every workload query must still optimize, execute, and return
// exactly the rows of the transformation-free baseline — the failing rule
// is quarantined, never fatal.
func TestFaultPanicEveryRuleDifferential(t *testing.T) {
	db := testkit.NewDB(testkit.SmallSizes(), 7)
	s := testkit.SmallSizes()
	cfg := workload.DefaultConfig(11, 40, s.Employees, s.Departments, s.Jobs)
	cfg.RelevantFraction = 0.7
	queries := workload.Generate(cfg)

	baseline := make([][]string, len(queries))
	for i, wq := range queries {
		baseline[i], _ = runCBQT(t, db, wq.SQL, disabledOptions())
	}

	for _, r := range transform.CostBasedRules() {
		site := "state:" + r.Name()
		for i, wq := range queries {
			faults := faultinject.New(faultinject.Fault{Site: site, Kind: faultinject.KindPanic})
			opts := DefaultOptions()
			opts.Faults = faults
			rows, res := runCBQT(t, db, wq.SQL, opts)
			if !equalStrs(rows, baseline[i]) {
				t.Errorf("panic@%s query %d (%s): results changed (%d rows vs %d)\nsql: %s",
					site, wq.ID, wq.Class, len(rows), len(baseline[i]), wq.SQL)
			}
			if faults.Hits(site) > 0 && !containsStr(res.Stats.QuarantinedRules, r.Name()) {
				t.Errorf("panic@%s query %d: fault fired but rule was not quarantined (quarantined: %v)",
					site, wq.ID, res.Stats.QuarantinedRules)
			}
		}
	}
}

// TestFaultEndsRuleSearch: the first faulting state ends its rule's
// search. A panic in the second state of the exhaustive Table 2 unnesting
// search leaves no later state of that rule in the trace, quarantines the
// rule, and the query returns the fault-free rows.
func TestFaultEndsRuleSearch(t *testing.T) {
	db := testkit.NewDB(testkit.SmallSizes(), 7)
	opts := DefaultOptions()
	opts.Strategy = StrategyExhaustive
	opts.Trace = true
	baseRows, _ := runCBQT(t, db, table2SQL, opts)

	const rule = "subquery unnesting"
	opts.Faults = faultinject.New(faultinject.Fault{Site: "state:" + rule, Kind: faultinject.KindPanic, Hit: 2})
	rows, res := runCBQT(t, db, table2SQL, opts)
	faulted := false
	for _, e := range res.Stats.Events {
		if e.Ev != obsv.EvState || e.Rule != rule {
			continue
		}
		if faulted {
			t.Errorf("state %s (%s) was evaluated after the rule's faulting state", e.State, e.Outcome)
		}
		faulted = faulted || e.Outcome == obsv.OutcomeFault
	}
	if !faulted {
		t.Fatal("no state of the rule faulted")
	}
	if !containsStr(res.Stats.QuarantinedRules, rule) {
		t.Errorf("rule not quarantined (quarantined: %v)", res.Stats.QuarantinedRules)
	}
	if !equalStrs(rows, baseRows) {
		t.Errorf("results changed (%d rows vs %d)", len(rows), len(baseRows))
	}
}

// TestFaultApplyPanic injects a panic into every application of each
// transformation on the Table 2 query. It fires on the first application,
// in the evaluation of the first transformed state: that state's clone is
// discarded, the rule quarantined, and the results unchanged.
func TestFaultApplyPanic(t *testing.T) {
	db := testkit.NewDB(testkit.SmallSizes(), 7)
	baseRows, _ := runCBQT(t, db, table2SQL, disabledOptions())

	for _, r := range transform.CostBasedRules() {
		site := "apply:" + r.Name()
		faults := faultinject.New(faultinject.Fault{Site: site, Kind: faultinject.KindPanic})
		opts := DefaultOptions()
		opts.Faults = faults
		rows, res := runCBQT(t, db, table2SQL, opts)
		if !equalStrs(rows, baseRows) {
			t.Errorf("panic@%s: results changed (%d rows vs %d)", site, len(rows), len(baseRows))
		}
		if faults.Hits(site) > 0 && len(res.Stats.TransformErrors) == 0 {
			t.Errorf("panic@%s: fault fired but no TransformError was recorded", site)
		}
	}
}

// TestFaultHeuristics: a failing imperative heuristic pass is rolled back
// to the backup tree and recorded; the query still runs correctly.
func TestFaultHeuristics(t *testing.T) {
	db := testkit.NewDB(testkit.SmallSizes(), 7)
	baseRows, _ := runCBQT(t, db, table2SQL, disabledOptions())

	for _, kind := range []faultinject.Kind{faultinject.KindPanic, faultinject.KindError} {
		opts := DefaultOptions()
		opts.Faults = faultinject.New(faultinject.Fault{Site: "heuristics", Kind: kind})
		rows, res := runCBQT(t, db, table2SQL, opts)
		if !equalStrs(rows, baseRows) {
			t.Errorf("%v@heuristics: results changed (%d rows vs %d)", kind, len(rows), len(baseRows))
		}
		found := false
		for _, te := range res.Stats.TransformErrors {
			if te.Rule == "heuristics" {
				found = true
			}
		}
		if !found {
			t.Errorf("%v@heuristics: no heuristics TransformError recorded (errors: %v)",
				kind, res.Stats.TransformErrors)
		}
	}
}

// TestHeuristicCheckRejection: when the checker rejects the heuristic
// phase's result, the fault is recorded with reason "check", the phase's
// work is discarded so the search starts from the untransformed query (the
// same final query as with the phase skipped), and the rows are the
// baseline's. The phase merges the SPJ view here, so skipping it shows.
func TestHeuristicCheckRejection(t *testing.T) {
	db := testkit.NewDB(testkit.SmallSizes(), 7)
	const src = `SELECT v.employee_name, d.department_name
FROM (SELECT e.employee_name, e.dept_id FROM employees e WHERE e.salary > 3000) v, departments d
WHERE v.dept_id = d.dept_id`
	baseRows, heurRes := runCBQT(t, db, src, disabledOptions())
	skip := DefaultOptions()
	skip.SkipHeuristics = true
	_, skipRes := runCBQT(t, db, src, skip)
	if heurRes.Query.SQL() == skipRes.Query.SQL() {
		t.Fatalf("the heuristic phase does not change the query: %s", skipRes.Query.SQL())
	}

	onHeuristicWork = func(work *qtree.Query) {
		root := work.Mutable(work.Root)
		root.Where = append(root.Where, &qtree.Col{From: 1 << 20, Name: "PLANTED"})
	}
	defer func() { onHeuristicWork = nil }()
	opts := DefaultOptions()
	opts.Check = true
	opts.Trace = true
	rows, res := runCBQT(t, db, src, opts)
	if len(res.Stats.TransformErrors) != 1 || res.Stats.TransformErrors[0].Rule != "heuristics" ||
		res.Stats.TransformErrors[0].class() != checkEventReason {
		t.Fatalf("transform errors %v, want one heuristics error of class %q", res.Stats.TransformErrors, checkEventReason)
	}
	traced := false
	for _, e := range res.Stats.Events {
		traced = traced || e.Ev == obsv.EvHeuristics && e.Outcome == obsv.OutcomeFault && e.Reason == checkEventReason
	}
	if !traced {
		t.Errorf("no heuristics fault event with reason %q in the trace", checkEventReason)
	}
	if got, want := res.Query.SQL(), skipRes.Query.SQL(); got != want {
		t.Errorf("a rejected heuristic phase changed the query\ngot:  %s\nwant: %s", got, want)
	}
	if !equalStrs(rows, baseRows) {
		t.Errorf("results changed (%d rows vs %d)", len(rows), len(baseRows))
	}
}

// TestFaultCache: cost-cache faults degrade lookups to misses and drop
// stores — they cost work, never correctness or plan choice.
func TestFaultCache(t *testing.T) {
	db := testkit.NewDB(testkit.SmallSizes(), 7)
	clean := DefaultOptions()
	cleanRows, cleanRes := runCBQT(t, db, table2SQL, clean)

	opts := DefaultOptions()
	opts.Faults = faultinject.New(
		faultinject.Fault{Site: "cache:get", Kind: faultinject.KindError},
		faultinject.Fault{Site: "cache:put", Kind: faultinject.KindError},
	)
	rows, res := runCBQT(t, db, table2SQL, opts)
	if got, want := res.Query.SQL(), cleanRes.Query.SQL(); got != want {
		t.Errorf("cache faults changed the chosen query:\ngot:  %s\nwant: %s", got, want)
	}
	if !equalStrs(rows, cleanRows) {
		t.Errorf("cache faults changed results")
	}
	if res.Stats.CacheHits != 0 {
		t.Errorf("cache:get faults still produced %d hits", res.Stats.CacheHits)
	}
}

package cbqt

import (
	"testing"

	"repro/internal/faultinject"
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

// TestFaultApplyPanic injects a panic into the winner-application path of
// every transformation on the Table 2 query: the backup tree must be
// restored, the rule quarantined, and the results unchanged.
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

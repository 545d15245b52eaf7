package cbqt_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/cbqt"
	"repro/internal/qtree"
	"repro/internal/storage"
	"repro/internal/testkit"
)

// TestAdoptionEqualsReapplication: the tree the driver adopts for a rule's
// winner is the tree re-applying the winner would build. Over the decision
// corpus and one join-factorization text, on small and medium data, under the default strategy and under
// exhaustive search, each adopted tree renders the same SQL and carries the
// same ID counters as the winning state and its heuristic re-pass applied
// to a fresh copy-on-write clone of the pre-rule base.
func TestAdoptionEqualsReapplication(t *testing.T) {
	adopted := 0
	var where string
	defer cbqt.CompareAdoption(func(rule string, got, want *qtree.Query) {
		adopted++
		if g, w := got.SQL(), want.SQL(); g != w {
			t.Errorf("%s, %s: adopted tree\n%s\nre-application builds\n%s", where, rule, g, w)
		}
		gf, gb := got.IDCounters()
		wf, wb := want.IDCounters()
		if gf != wf || gb != wb {
			t.Errorf("%s, %s: adopted tree's ID counters %d/%d, re-application's %d/%d", where, rule, gf, gb, wf, wb)
		}
	})()

	// No winner of the decision corpus is changed by its heuristic re-pass.
	// This join-factorization text's winner is (the re-pass reshapes the
	// view factoring leaves), so a kept tree that skipped its re-pass shows.
	corpus := append(decisionCorpus(), `
SELECT d.department_name, l.city, e.employee_name FROM employees e, departments d, locations l
 WHERE e.dept_id = d.dept_id AND d.loc_id = l.loc_id AND e.salary > 9000
UNION ALL
SELECT d.department_name, l.city, s.country_id FROM sales s, departments d, locations l
 WHERE s.dept_id = d.dept_id AND d.loc_id = l.loc_id AND s.amount > 900`)
	for _, data := range []struct {
		name string
		db   *storage.DB
	}{
		{"small", testkit.NewDB(testkit.SmallSizes(), 7)},
		{"medium", testkit.NewDB(testkit.MediumSizes(), 1)},
	} {
		for _, strat := range []cbqt.Strategy{cbqt.StrategyAuto, cbqt.StrategyExhaustive} {
			opts := cbqt.DefaultOptions()
			opts.Strategy = strat
			o := &cbqt.Optimizer{Cat: data.db.Catalog, Opts: opts}
			for _, src := range corpus {
				where = data.name + "/" + strat.String() + "/" + src
				if _, err := o.Optimize(qtree.MustBind(src, data.db.Catalog)); err != nil {
					t.Fatalf("%s: %v", where, err)
				}
			}
		}
	}
	if adopted == 0 {
		t.Fatal("no rule winner was adopted")
	}
	t.Logf("%d adopted winners compared", adopted)
}

// TestWinnerBuiltOnce: the search builds each state's tree once and the
// driver adopts the winner's, so over bench.AdhocCorpus(41) an optimization
// takes one copy-on-write clone per state costed plus one for the heuristic
// phase, and none to apply a winner.
func TestWinnerBuiltOnce(t *testing.T) {
	db := testkit.NewDB(testkit.SmallSizes(), 7)
	o := &cbqt.Optimizer{Cat: db.Catalog, Opts: cbqt.DefaultOptions()}
	corpus := bench.AdhocCorpus(41)
	qs := make([]*qtree.Query, len(corpus))
	for i, src := range corpus {
		qs[i] = qtree.MustBind(src, db.Catalog)
	}
	states := 0
	_, cow0, _ := qtree.CopyCounters()
	for _, q := range qs {
		res, err := o.Optimize(q)
		if err != nil {
			t.Fatal(err)
		}
		states += res.Stats.StatesEvaluated
	}
	_, cow1, _ := qtree.CopyCounters()
	t.Logf("%d texts, %d states, %d copy-on-write clones", len(corpus), states, cow1-cow0)
	if got, want := cow1-cow0, int64(states+len(corpus)); got != want {
		t.Errorf("%d copy-on-write clones for %d states over %d texts, want %d", got, states, len(corpus), want)
	}
}

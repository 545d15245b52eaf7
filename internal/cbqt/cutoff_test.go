package cbqt_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/cbqt"
	"repro/internal/obsv"
	"repro/internal/qtree"
	"repro/internal/storage"
	"repro/internal/testkit"
)

// TestCutoffIsRunningMinimum pins the sequential §3.4.1 cut-off: within a
// rule, no state is fully costed at a cost above the cheapest state costed
// before it, because the search cuts it at that cost instead. It covers the
// trace goldens' workloads under every strategy and the decision corpus on
// small data under auto and exhaustive search.
func TestCutoffIsRunningMinimum(t *testing.T) {
	check := func(name string, db *storage.DB, sql string, strat cbqt.Strategy) {
		t.Helper()
		opts := cbqt.DefaultOptions()
		opts.Strategy = strat
		opts.Trace = true
		res, err := (&cbqt.Optimizer{Cat: db.Catalog, Opts: opts}).Optimize(qtree.MustBind(sql, db.Catalog))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		best := math.Inf(1)
		for _, e := range res.Stats.Events {
			switch {
			case e.Ev == obsv.EvRule:
				best = math.Inf(1)
			case e.Ev == obsv.EvState && e.Outcome == obsv.OutcomeCosted:
				if e.Cost > best {
					t.Errorf("%s: rule %s state %s costed at %v after a state costed at %v; the cut-off should have abandoned it",
						name, e.Rule, e.State, e.Cost, best)
				}
				best = math.Min(best, e.Cost)
			}
		}
	}
	strategies := []cbqt.Strategy{cbqt.StrategyExhaustive, cbqt.StrategyLinear, cbqt.StrategyTwoPass, cbqt.StrategyIterative}
	cbqt.EachTraceCase(func(name string, db *storage.DB, sql string) {
		for _, strat := range strategies {
			check(name+"/"+strat.String(), db, sql, strat)
		}
	})
	small := testkit.NewDB(testkit.SmallSizes(), 7)
	for i, sql := range decisionCorpus() {
		for _, strat := range []cbqt.Strategy{cbqt.StrategyAuto, cbqt.StrategyExhaustive} {
			check(fmt.Sprintf("decisions/%s/%d", strat, i), small, sql, strat)
		}
	}
}

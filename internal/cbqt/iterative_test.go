package cbqt_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/cbqt"
	"repro/internal/qtree"
	"repro/internal/testkit"
	"repro/internal/transform"
)

// TestIterativeBounded pins iterative improvement's state bound at 24 on an
// unnesting search over eight subqueries: 256 states, of which its three
// climbs would cost 30 unbounded.
func TestIterativeBounded(t *testing.T) {
	const bound = 24
	db := testkit.NewDB(testkit.SmallSizes(), 7)
	opts := cbqt.DefaultOptions()
	opts.Strategy = cbqt.StrategyIterative
	opts.SkipHeuristics = true
	opts.Rules = []transform.Rule{&transform.UnnestSubquery{}}
	res, err := (&cbqt.Optimizer{Cat: db.Catalog, Opts: opts}).Optimize(qtree.MustBind(bench.Table2FamilyQuery(8), db.Catalog))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Stats.StatesEvaluated; got != bound {
		t.Errorf("iterative improvement costed %d states, want its bound %d", got, bound)
	}
}

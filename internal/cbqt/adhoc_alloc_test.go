package cbqt_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/cbqt"
	"repro/internal/qtree"
	"repro/internal/testkit"
)

// adhocOptimizeAllocBudget bounds the heap allocations of one Optimize of a
// one-shot text — heuristics, the whole state search and the final plan,
// as adhoc_cbqt pays it — averaged over bench.AdhocCorpus(41)
// on small data with the checker off, as production runs it. Measured on
// x86-64 with go1.24: 2 692 per optimization when every state
// re-discovered its rule's objects and re-ran the heuristics over every
// block, 1 932 once objects are found once per search and the re-pass
// visits only the blocks a state owns, rendering their conjuncts only when
// it has a predicate to add.
const adhocOptimizeAllocBudget = 2200

// The corpus is bound outside the measurement; the gate counts Optimize.
func TestAdhocOptimizeAllocBudget(t *testing.T) {
	db := testkit.NewDB(testkit.SmallSizes(), 7)
	opts := cbqt.DefaultOptions()
	opts.Check = false
	o := &cbqt.Optimizer{Cat: db.Catalog, Opts: opts}
	corpus := bench.AdhocCorpus(41)

	const runs = 5
	qs := make([][]*qtree.Query, runs+1) // AllocsPerRun adds one warm-up call
	for i := range qs {
		for _, src := range corpus {
			qs[i] = append(qs[i], qtree.MustBind(src, db.Catalog))
		}
	}
	next, states := 0, 0
	allocs := testing.AllocsPerRun(runs, func() {
		states = 0
		for _, q := range qs[next] {
			res, err := o.Optimize(q)
			if err != nil {
				t.Fatal(err)
			}
			states += res.Stats.StatesEvaluated
		}
		next++
	})
	if states == 0 {
		t.Fatal("the corpus searched no state space")
	}
	perOpt := allocs / float64(len(corpus))
	t.Logf("%.0f allocs over %d optimizations (%d states): %.0f per optimization", allocs, len(corpus), states, perOpt)
	if perOpt >= adhocOptimizeAllocBudget {
		t.Fatalf("one-shot optimization allocates %.0f times, budget %d", perOpt, adhocOptimizeAllocBudget)
	}
}

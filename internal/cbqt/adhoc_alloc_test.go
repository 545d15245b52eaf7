package cbqt_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/cbqt"
	"repro/internal/plancache"
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
// it has a predicate to add; 1 942 with a budget of 2 200 when three
// strategies still costed their states through a batch engine, 1 940 once
// every strategy costs them through one loop, 1 854 with a budget of 2 198
// once correlation is found in one walk and a join's output columns take
// one allocation, 1 813 with a budget of 2 112 once the driver adopts each
// winner's tree instead of building it again, 1 790 with a budget of 2 071
// once a copy-on-write relink rebuilds only the expression slot that holds
// the link and a deep copy shares constants. The budget keeps the 258
// margin above the reading.
const adhocOptimizeAllocBudget = 2048

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

// decisionHitAllocBudget bounds the heap allocations of one optimization of
// a one-shot text through a warmed decision store, key included — the path
// a cbqtd plan-cache miss takes once its template's decisions are stored —
// averaged over bench.AdhocCorpus(41) on small data with the checker off.
// Measured on x86-64 with go1.24: 793 per optimization, against
// TestAdhocOptimizeAllocBudget's 1 790 without the store. The budget keeps
// a margin of about an eighth above the reading.
const decisionHitAllocBudget = 900

// TestDecisionHitAllocBudget: the corpus is optimized once through the store
// to record its decisions, then bound outside the measurement; the gate
// counts NewDecisionKey and Optimize, and requires the Table 2 family texts
// to reuse their decisions.
func TestDecisionHitAllocBudget(t *testing.T) {
	db := testkit.NewDB(testkit.SmallSizes(), 7)
	opts := cbqt.DefaultOptions()
	opts.Check = false
	o := &cbqt.Optimizer{Cat: db.Catalog, Opts: opts, Decisions: cbqt.NewDecisionStore(0, nil)}
	corpus := bench.AdhocCorpus(41)

	const runs = 5
	qs := make([][]*qtree.Query, runs+2) // one recording pass, one warm-up call
	for i := range qs {
		for _, src := range corpus {
			qs[i] = append(qs[i], qtree.MustBind(src, db.Catalog))
		}
	}
	next, reused := 0, 0
	optimizeAll := func() {
		reused = 0
		for i, q := range qs[next] {
			o.DecisionKey = cbqt.NewDecisionKey(plancache.Template(corpus[i]), q, "test", nil)
			res, err := o.Optimize(q)
			if err != nil {
				t.Fatal(err)
			}
			reused += res.Stats.ReusedRules
		}
		next++
	}
	optimizeAll()
	allocs := testing.AllocsPerRun(runs, optimizeAll)
	if reused < 4 {
		t.Fatalf("%d rules reused a stored decision, want the four Table 2 family texts'", reused)
	}
	perOpt := allocs / float64(len(corpus))
	t.Logf("%.0f allocs over %d optimizations (%d rules reused): %.0f per optimization", allocs, len(corpus), reused, perOpt)
	if perOpt >= decisionHitAllocBudget {
		t.Fatalf("a one-shot optimization through the store allocates %.0f times, budget %d", perOpt, decisionHitAllocBudget)
	}
}

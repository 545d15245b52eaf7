package cbqt

import (
	"testing"

	"repro/internal/qtree"
	"repro/internal/testkit"
	"repro/internal/transform"
)

// searchAllocBudget bounds the heap allocations per costed state of the
// exhaustive Table 2 search (16 states, unnesting only). Every
// state clones the tree, re-runs the heuristics, keys its blocks for
// annotation reuse and plans what it cannot reuse, so this is the
// optimizer's per-state fixed cost. Measured on x86-64 with go1.24: 2 118
// per state (33 883 per search) when join enumeration built every
// candidate it priced and expressions rendered through fmt, 708 (11 334)
// once it built only winners and rendered with one append-style writer,
// 600 (9 598) once each search finds its objects once and a state's
// heuristic re-pass visits only the blocks it owns. It read 622 (9 944)
// when three strategies still costed their states through a batch engine
// and 622 (9 944-9 945) once every strategy costs them through one loop,
// with a budget of 800; 603 (9 649) once correlation is found in one walk
// and a join's output columns take one allocation; 592 (9 472) once the
// driver adopts the winner's tree instead of building it again; 586
// (9 379) once a copy-on-write relink rebuilds only the expression slot
// that holds the link. The budget was 1 000 until the 600 reading; it keeps
// the 178 margin the 622 reading had.
const searchAllocBudget = 764

func TestSearchAllocBudget(t *testing.T) {
	db := testkit.NewDB(testkit.SmallSizes(), 7)
	opts := DefaultOptions()
	opts.Strategy = StrategyExhaustive
	opts.Rules = []transform.Rule{&transform.UnnestSubquery{}}
	o := &Optimizer{Cat: db.Catalog, Opts: opts}

	const runs = 10
	qs := make([]*qtree.Query, runs+1) // AllocsPerRun adds one warm-up call
	for i := range qs {
		qs[i] = qtree.MustBind(table2SQL, db.Catalog)
	}
	next, states := 0, 0
	allocs := testing.AllocsPerRun(runs, func() {
		res, err := o.Optimize(qs[next])
		if err != nil {
			t.Fatal(err)
		}
		next++
		states = res.Stats.StatesEvaluated
	})
	if states != 16 {
		t.Fatalf("exhaustive search costed %d states, want 16", states)
	}
	perState := allocs / float64(states)
	t.Logf("%.0f allocs/search over %d states: %.0f per state", allocs, states, perState)
	if perState >= searchAllocBudget {
		t.Fatalf("search allocates %.0f times per costed state, budget %d", perState, searchAllocBudget)
	}
}

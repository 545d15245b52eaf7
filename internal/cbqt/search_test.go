package cbqt

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/obsv"
	"repro/internal/optimizer"
	"repro/internal/qtree"
	"repro/internal/testkit"
	"repro/internal/transform"
)

func TestEnumerateStatesMatchesSequentialOrder(t *testing.T) {
	states := enumerateStates([]int{1, 2})
	want := []string{"00", "10", "01", "11", "02", "12"}
	if len(states) != len(want) {
		t.Fatalf("enumerated %d states, want %d", len(states), len(want))
	}
	for i, s := range states {
		if stateKey(s) != want[i] {
			t.Errorf("state %d = %s, want %s", i, stateKey(s), want[i])
		}
	}
}

// determinismQueries cover the transformations with non-trivial state
// spaces; byte-identical outcomes are required for each on every run.
var determinismQueries = []string{
	table1SQL,
	testQueries[0], // Q1-style correlated aggregate + IN
	testQueries[3], // group-by view join
	testQueries[9], // union-all factorization candidate
}

// TestSearchDeterminism runs every strategy twice and requires the chosen
// transformed query, the final plan cost, and the rendered EXPLAIN to be
// byte-identical across the runs: the winner must depend only on the state
// space.
func TestSearchDeterminism(t *testing.T) {
	db := testkit.TinyDB()
	for qi, src := range determinismQueries {
		for _, strat := range []Strategy{StrategyExhaustive, StrategyLinear, StrategyTwoPass, StrategyIterative} {
			var sql, explain [2]string
			var cost [2]float64
			for run := range sql {
				opts := DefaultOptions()
				opts.Strategy = strat
				q := qtree.MustBind(src, db.Catalog)
				res, err := (&Optimizer{Cat: db.Catalog, Opts: opts}).Optimize(q)
				if err != nil {
					t.Fatalf("query %d strategy %v: %v", qi, strat, err)
				}
				sql[run], cost[run], explain[run] = res.Query.SQL(), res.Plan.Cost.Total, optimizer.Explain(res.Plan)
			}
			if sql[1] != sql[0] {
				t.Errorf("query %d strategy %v: the second run chose a different query:\n%s\nvs\n%s", qi, strat, sql[1], sql[0])
			}
			if cost[1] != cost[0] {
				t.Errorf("query %d strategy %v: cost %v != %v", qi, strat, cost[1], cost[0])
			}
			if explain[1] != explain[0] {
				t.Errorf("query %d strategy %v: EXPLAIN diverged:\n%s\nvs\n%s", qi, strat, explain[1], explain[0])
			}
		}
	}
}

// TestExhaustiveTraceCoversAllStates checks the trace of an exhaustive
// search without the cut-off is complete and in enumeration order.
func TestExhaustiveTraceCoversAllStates(t *testing.T) {
	db := testkit.TinyDB()
	q := qtree.MustBind(table1SQL, db.Catalog)
	opts := DefaultOptions()
	opts.Strategy = StrategyExhaustive
	opts.CostCutoff = false
	opts.SkipHeuristics = true
	opts.Trace = true
	opts.Rules = []transform.Rule{&transform.UnnestSubquery{}}
	o := &Optimizer{Cat: db.Catalog, Opts: opts}
	res, err := o.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"00", "10", "01", "11"}
	var got []string
	for _, ev := range res.Stats.Events {
		if ev.Ev != obsv.EvState {
			continue
		}
		if ev.Outcome != obsv.OutcomeCosted {
			t.Errorf("state %s: outcome %q, want %q", ev.State, ev.Outcome, obsv.OutcomeCosted)
		}
		got = append(got, ev.State)
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("state events %v, want %v (states must be costed in enumeration order)", got, want)
	}
}

// TestCacheStatsPerQueryUnderSharedRegistry: optimizations that share one
// obsv.Registry — as every session of a server does — each report their own
// annotation-table lookups. Every concurrent run's Stats.CacheHits and
// CacheMisses equal a solo run's, and the registry's costcache.hits/misses
// are exactly their sum. (Stats used to be a before/after difference of the
// shared counters, so overlapping optimizations counted each other's hits.)
func TestCacheStatsPerQueryUnderSharedRegistry(t *testing.T) {
	db := testkit.NewDB(testkit.SmallSizes(), 7)
	opts := DefaultOptions()
	optimize := func(reg *obsv.Registry) (Stats, error) {
		o := &Optimizer{Cat: db.Catalog, Opts: opts}
		o.Opts.Metrics = reg
		res, err := o.Optimize(qtree.MustBind(table2SQL, db.Catalog))
		if err != nil {
			return Stats{}, err
		}
		return res.Stats, nil
	}
	solo, err := optimize(obsv.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if solo.CacheHits == 0 || solo.CacheMisses == 0 {
		t.Fatalf("solo run has %d hits, %d misses; the Table 2 search must have both", solo.CacheHits, solo.CacheMisses)
	}

	const goroutines, runs = 8, 20
	reg := obsv.NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < runs; i++ {
				s, err := optimize(reg)
				if err != nil {
					t.Error(err)
					return
				}
				if s.CacheHits != solo.CacheHits || s.CacheMisses != solo.CacheMisses {
					t.Errorf("concurrent run counted %d hits, %d misses; a solo run counts %d, %d",
						s.CacheHits, s.CacheMisses, solo.CacheHits, solo.CacheMisses)
					return
				}
			}
		}()
	}
	wg.Wait()
	const total = goroutines * runs
	if got, want := reg.CounterValue(optimizer.MetricCacheHits), total*solo.CacheHits; got != want {
		t.Errorf("registry costcache.hits = %d, want %d (%d runs x %d)", got, want, total, solo.CacheHits)
	}
	if got, want := reg.CounterValue(optimizer.MetricCacheMisses), total*solo.CacheMisses; got != want {
		t.Errorf("registry costcache.misses = %d, want %d (%d runs x %d)", got, want, total, solo.CacheMisses)
	}
}

package cbqt

import (
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/obsv"
	"repro/internal/optimizer"
	"repro/internal/qtree"
	"repro/internal/testkit"
	"repro/internal/transform"
)

func TestPrefixBound(t *testing.T) {
	b := newPrefixBound(math.Inf(1), 4)
	if !math.IsInf(b.boundFor(3), 1) {
		t.Fatalf("initial bound = %v", b.boundFor(3))
	}
	// A later state's completion must never tighten an earlier state's bound.
	b.complete(2, 5)
	if !math.IsInf(b.boundFor(1), 1) {
		t.Errorf("bound for state 1 = %v after state 2 completed; want +Inf", b.boundFor(1))
	}
	if got := b.boundFor(3); got != 5 {
		t.Errorf("bound for state 3 = %v, want 5", got)
	}
	// The bound is the minimum over the completed prefix and the seed.
	b.complete(0, 10)
	if got := b.boundFor(1); got != 10 {
		t.Errorf("bound for state 1 = %v, want 10", got)
	}
	if got := b.boundFor(3); got != 5 {
		t.Errorf("bound for state 3 = %v, want 5", got)
	}
	// A finite seed participates in every bound.
	s := newPrefixBound(7, 2)
	if got := s.boundFor(1); got != 7 {
		t.Errorf("seeded bound = %v, want 7", got)
	}
	s.complete(0, 3)
	if got := s.boundFor(1); got != 3 {
		t.Errorf("seeded bound after completion = %v, want 3", got)
	}
}

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
// spaces; byte-identical outcomes are required for each at every
// parallelism level.
var determinismQueries = []string{
	table1SQL,
	testQueries[0], // Q1-style correlated aggregate + IN
	testQueries[3], // group-by view join
	testQueries[9], // union-all factorization candidate
}

// TestParallelDeterminism runs every strategy at parallelism 1, 2 and 8,
// twice each, and requires the chosen transformed query, the final plan
// cost, and the rendered EXPLAIN to be byte-identical across all runs and
// levels: the winner must depend only on the state space, never on worker
// scheduling.
func TestParallelDeterminism(t *testing.T) {
	db := testkit.TinyDB()
	for qi, src := range determinismQueries {
		for _, strat := range []Strategy{StrategyExhaustive, StrategyLinear, StrategyTwoPass, StrategyIterative} {
			var baseSQL, baseExplain string
			var baseCost float64
			first := true
			for _, par := range []int{1, 2, 8} {
				for run := 0; run < 2; run++ {
					opts := DefaultOptions()
					opts.Strategy = strat
					opts.Parallelism = par
					q := qtree.MustBind(src, db.Catalog)
					o := &Optimizer{Cat: db.Catalog, Opts: opts}
					res, err := o.Optimize(q)
					if err != nil {
						t.Fatalf("query %d strategy %v parallelism %d: %v", qi, strat, par, err)
					}
					sql := res.Query.SQL()
					cost := res.Plan.Cost.Total
					explain := optimizer.Explain(res.Plan)
					if first {
						baseSQL, baseCost, baseExplain = sql, cost, explain
						first = false
						continue
					}
					if sql != baseSQL {
						t.Errorf("query %d strategy %v parallelism %d run %d chose a different query:\n%s\nvs\n%s",
							qi, strat, par, run, sql, baseSQL)
					}
					if cost != baseCost {
						t.Errorf("query %d strategy %v parallelism %d run %d: cost %v != %v",
							qi, strat, par, run, cost, baseCost)
					}
					if explain != baseExplain {
						t.Errorf("query %d strategy %v parallelism %d run %d: EXPLAIN diverged:\n%s\nvs\n%s",
							qi, strat, par, run, explain, baseExplain)
					}
				}
			}
		}
	}
}

// TestParallelMatchesSequentialStats verifies the deterministic portions of
// Stats match between sequential and parallel evaluation: the number of
// states costed is scheduling-independent (only the hit/miss split and the
// pruning depth may move).
func TestParallelMatchesSequentialStats(t *testing.T) {
	db := testkit.TinyDB()
	for _, strat := range []Strategy{StrategyExhaustive, StrategyLinear, StrategyTwoPass} {
		counts := map[int]int{}
		for _, par := range []int{1, 4} {
			q := qtree.MustBind(table1SQL, db.Catalog)
			opts := DefaultOptions()
			opts.Strategy = strat
			opts.Parallelism = par
			opts.SkipHeuristics = true
			opts.Rules = []transform.Rule{&transform.UnnestSubquery{}}
			o := &Optimizer{Cat: db.Catalog, Opts: opts}
			res, err := o.Optimize(q)
			if err != nil {
				t.Fatal(err)
			}
			counts[par] = res.Stats.StatesEvaluated
		}
		if counts[1] != counts[4] {
			t.Errorf("%v: states evaluated differ: P=1 %d vs P=4 %d", strat, counts[1], counts[4])
		}
	}
}

// TestParallelTraceCoversAllStates checks the merged trace is complete and
// in enumeration order under parallel exhaustive search.
func TestParallelTraceCoversAllStates(t *testing.T) {
	db := testkit.TinyDB()
	q := qtree.MustBind(table1SQL, db.Catalog)
	opts := DefaultOptions()
	opts.Strategy = StrategyExhaustive
	opts.Parallelism = 4
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
		t.Fatalf("state events %v, want %v (merge must follow enumeration order)", got, want)
	}
}

func TestParallelismResolution(t *testing.T) {
	o := New(nil)
	o.Opts.Parallelism = 0
	if got := o.parallelism(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("parallelism(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	o.Opts.Parallelism = 3
	if got := o.parallelism(); got != 3 {
		t.Errorf("parallelism(3) = %d", got)
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
	opts.Parallelism = 1 // the hit/miss split is exact only at one worker
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

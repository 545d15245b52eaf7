package cbqt

import (
	"fmt"
	"testing"

	"repro/internal/obsv"
	"repro/internal/optimizer"
	"repro/internal/qtree"
	"repro/internal/storage"
	"repro/internal/testkit"
	"repro/internal/transform"
	"repro/internal/workload"
)

// The two reference paths of state evaluation sit behind variables only
// these tests set: onHandleMismatch re-discovers a rule's objects on every
// state's clone and compares them with the handles found once on the base,
// and fullHeuristicRepass makes every heuristic re-pass visit every block
// instead of only the blocks the state owns. Each test optimizes a corpus
// with its reference armed and disarmed and requires identical outcomes.

// referenceCase is one optimization of the equivalence corpus.
type referenceCase struct {
	name string
	db   *storage.DB
	sql  string
	opts Options
}

// referenceCorpus is testQueries under every strategy and in mixed mode
// (each rule that has a heuristic decision in RuleHeuristic mode, the rest
// cost-based), the TestDifferentialCOW workload, and the Table 2 query
// under every strategy.
func referenceCorpus() []referenceCase {
	traced := func() Options {
		opts := DefaultOptions()
		opts.Trace = true
		return opts
	}
	var cases []referenceCase
	tiny := testkit.TinyDB()
	for i, src := range testQueries {
		for _, strat := range []Strategy{StrategyExhaustive, StrategyLinear, StrategyTwoPass, StrategyIterative} {
			opts := traced()
			opts.Strategy = strat
			cases = append(cases, referenceCase{fmt.Sprintf("testQueries[%d] %s", i, strat), tiny, src, opts})
		}
		for _, r := range transform.CostBasedRules() {
			if _, ok := r.(HeuristicDecider); !ok {
				continue
			}
			opts := traced()
			opts.RuleModes = map[string]RuleMode{r.Name(): RuleHeuristic}
			cases = append(cases, referenceCase{fmt.Sprintf("testQueries[%d] heuristic %s", i, r.Name()), tiny, src, opts})
		}
	}
	// Heuristic-mode unnesting inside the view leaves the base short of a
	// heuristic fixpoint (the view can derive mgr_id = 1 for the unnested
	// aggregate view and push it in), and the group-by placement states
	// that follow do not own the view: only a full re-pass reaches it, so
	// skipping shared blocks here would change the decision.
	opts := traced()
	unnest := &transform.UnnestSubquery{}
	opts.Rules = []transform.Rule{unnest, &transform.GroupByPlacement{}}
	opts.RuleModes = map[string]RuleMode{unnest.Name(): RuleHeuristic}
	cases = append(cases, referenceCase{"heuristic unnesting below cost-based placement", tiny, `
SELECT d.name, SUM(p.budget) FROM dept d, proj p,
 (SELECT e2.name n2, e2.dept_id d2 FROM emp e2
  WHERE e2.mgr_id = 1 AND rownum <= 100 AND
        e2.salary > (SELECT AVG(e3.salary) FROM emp e3 WHERE e3.mgr_id = e2.mgr_id)) v
WHERE d.dept_id = p.dept_id AND v.d2 = d.dept_id GROUP BY d.name`, opts})

	s := testkit.SmallSizes()
	small := testkit.NewDB(s, 7)
	cfg := workload.DefaultConfig(13, 120, s.Employees, s.Departments, s.Jobs)
	cfg.RelevantFraction = 0.7
	for _, wq := range workload.Generate(cfg) {
		cases = append(cases, referenceCase{fmt.Sprintf("workload %d (%s)", wq.ID, wq.Class), small, wq.SQL, traced()})
	}
	// Four unnesting objects in one block: states apply several handles to
	// a block whose conjuncts earlier applications remove.
	for _, strat := range []Strategy{StrategyExhaustive, StrategyLinear, StrategyTwoPass, StrategyIterative} {
		opts := traced()
		opts.Strategy = strat
		cases = append(cases, referenceCase{"table 2 " + strat.String(), small, table2SQL, opts})
	}
	return cases
}

// checkAgainstReference optimizes every corpus case with the reference
// path armed (setRef(true)) and disarmed, and requires the same transformed
// query, plan, states, work counters and normalized trace.
func checkAgainstReference(t *testing.T, setRef func(bool)) {
	t.Cleanup(func() { setRef(false) })
	optimize := func(c referenceCase, ref bool) *Result {
		setRef(ref)
		defer setRef(false)
		q := qtree.MustBind(c.sql, c.db.Catalog)
		res, err := (&Optimizer{Cat: c.db.Catalog, Opts: c.opts}).Optimize(q)
		if err != nil {
			t.Fatalf("%s: %v\nsql: %s", c.name, err, c.sql)
		}
		return res
	}
	transformed := 0
	cases := referenceCorpus()
	for _, c := range cases {
		want, got := optimize(c, true), optimize(c, false)
		if want.Stats.StatesEvaluated > 0 {
			transformed++
		}
		diff := func(what string, w, g any) {
			t.Errorf("%s: %s differs from the reference\nreference: %v\ngot:       %v\nsql: %s", c.name, what, w, g, c.sql)
		}
		if w, g := want.Query.SQL(), got.Query.SQL(); w != g {
			diff("transformed query", w, g)
		}
		if w, g := optimizer.Explain(want.Plan), optimizer.Explain(got.Plan); w != g {
			diff("plan", w, g)
		}
		if w, g := want.Stats.StatesEvaluated, got.Stats.StatesEvaluated; w != g {
			diff("states evaluated", w, g)
		}
		if w, g := fmt.Sprint(want.Stats.QuarantinedRules), fmt.Sprint(got.Stats.QuarantinedRules); w != g {
			diff("quarantined rules", w, g)
		}
		if w, g := memoCounts(want.Stats), memoCounts(got.Stats); w != g {
			diff("memo counters", w, g)
		}
		if w, g := planCounts(want.Stats), planCounts(got.Stats); w != g {
			diff("planner counters", w, g)
		}
		if w, g := obsv.MarshalJSONL(obsv.Normalize(want.Stats.Events)), obsv.MarshalJSONL(obsv.Normalize(got.Stats.Events)); w != g {
			diff("normalized trace", w, g)
		}
	}
	if transformed < 100 {
		t.Fatalf("only %d cases searched a state space; the corpus is not exercising the search", transformed)
	}
}

func memoCounts(s Stats) string {
	return fmt.Sprintf("shared=%d materialized=%d bytes=%d", s.MemoSharedBlocks, s.MemoMaterializedBlocks, s.MemoStateBytes)
}

func planCounts(s Stats) string {
	return fmt.Sprintf("blocks=%d hits=%d", s.BlocksOptimized, s.AnnotationHits)
}

// TestHandlesMatchRediscovery checks the handle contract for all seven
// rules: when a state applies object i, rediscovering the rule's objects on
// the state's clone as it stands then finds object i at index i, equal to
// the handle found once on the base.
func TestHandlesMatchRediscovery(t *testing.T) {
	mismatches := 0
	checkAgainstReference(t, func(on bool) {
		onHandleMismatch = nil
		if on {
			onHandleMismatch = func(err error) {
				if mismatches++; mismatches <= 5 {
					t.Error(err)
				}
			}
		}
	})
	if mismatches > 0 {
		t.Fatalf("%d handle(s) disagree with rediscovery", mismatches)
	}
}

// TestOwnedHeuristicRepass checks that re-running the heuristics over only
// the blocks a state owns, while the base is at a heuristic fixpoint, gives
// exactly what the full re-pass over every block gives.
func TestOwnedHeuristicRepass(t *testing.T) {
	checkAgainstReference(t, func(on bool) { fullHeuristicRepass = on })
}

// panicApplyUnnest is cost-based unnesting whose application panics and
// whose pre-CBQT decision always unnests.
type panicApplyUnnest struct{ transform.UnnestSubquery }

func (*panicApplyUnnest) Apply(*qtree.Query, transform.Object, int) error {
	panic("unnest apply exploded")
}

func (*panicApplyUnnest) HeuristicVariant(*qtree.Query, transform.Object) int { return 1 }

// TestHeuristicModeApplyPanicQuarantined is the RuleHeuristic counterpart
// of the cost-based quarantine: a rule that panics while its heuristic
// decision is applied is quarantined, the query keeps the form it had
// before the rule, and the panic never reaches the caller.
func TestHeuristicModeApplyPanicQuarantined(t *testing.T) {
	db := testkit.TinyDB()
	r := &panicApplyUnnest{}
	optimize := func(mode RuleMode) (res *Result, panicked any) {
		defer func() { panicked = recover() }()
		opts := DefaultOptions()
		opts.Rules = []transform.Rule{r}
		opts.RuleModes = map[string]RuleMode{r.Name(): mode}
		q := qtree.MustBind(testQueries[0], db.Catalog)
		res, err := (&Optimizer{Cat: db.Catalog, Opts: opts}).Optimize(q)
		if err != nil {
			t.Fatalf("optimize: %v", err)
		}
		return res, nil
	}
	res, p := optimize(RuleHeuristic)
	if p != nil {
		t.Fatalf("panic escaped Optimize in RuleHeuristic mode: %v", p)
	}
	if got := fmt.Sprint(res.Stats.QuarantinedRules); got != fmt.Sprint([]string{r.Name()}) {
		t.Fatalf("quarantined %s, want [%s]", got, r.Name())
	}
	if len(res.Stats.TransformErrors) != 1 || res.Stats.TransformErrors[0].Panic == nil {
		t.Fatalf("transform errors %v, want the one recovered panic", res.Stats.TransformErrors)
	}
	off, _ := optimize(RuleOff)
	if got, want := res.Query.SQL(), off.Query.SQL(); got != want {
		t.Errorf("a quarantined heuristic application changed the query\ngot:  %s\nwant: %s", got, want)
	}
}

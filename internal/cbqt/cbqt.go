// Package cbqt implements the paper's central contribution: the cost-based
// query transformation framework (§3). The driver applies the heuristic
// transformations imperatively, then considers each cost-based
// transformation in the paper's sequential order. For every transformation
// it discovers the objects the transformation applies to, once per search,
// enumerates a state space over those objects — a state assigns each object
// "untransformed" or one of its variants (variants model interleaving and
// juxtaposition, §3.3) — gives each state a copy-on-write clone of the
// query (qtree.CloneCOW: blocks are shared until a rule mutates them),
// applies the state through the objects' handles, re-runs the heuristic
// transformations over the blocks the state owns, invokes the physical
// optimizer to cost it, and finally transfers the directives of the winning
// state onto the original query tree.
//
// Four state-space search strategies are provided (§3.2): exhaustive,
// iterative improvement, linear, and two-pass, with automatic selection
// based on the number of objects. Optimization performance techniques from
// §3.4 are implemented: cost cut-off, reuse of query sub-tree cost
// annotations, and caching of expensive optimizer computations.
package cbqt

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/catalog"
	"repro/internal/check"
	"repro/internal/faultinject"
	"repro/internal/obsv"
	"repro/internal/optimizer"
	"repro/internal/qtree"
	"repro/internal/transform"
)

// Strategy selects the state-space search technique (§3.2).
type Strategy int

// Search strategies.
const (
	// StrategyAuto picks per the paper: exhaustive for small object
	// counts, linear beyond exhaustiveThreshold, two-pass when the total
	// object count in the query exceeds twoPassThreshold.
	StrategyAuto Strategy = iota
	StrategyExhaustive
	StrategyIterative
	StrategyLinear
	StrategyTwoPass
)

var strategyNames = [...]string{
	StrategyAuto: "auto", StrategyExhaustive: "exhaustive",
	StrategyIterative: "iterative", StrategyLinear: "linear",
	StrategyTwoPass: "two-pass",
}

func (s Strategy) String() string { return strategyNames[s] }

// ParseStrategy returns the strategy whose String is name.
func ParseStrategy(name string) (Strategy, error) {
	for s, n := range strategyNames {
		if n == name {
			return Strategy(s), nil
		}
	}
	return 0, fmt.Errorf("cbqt: unknown strategy %q", name)
}

// RuleMode controls how one transformation participates.
type RuleMode int

// Rule modes.
const (
	// RuleCostBased evaluates transformation states by cost (the default).
	RuleCostBased RuleMode = iota
	// RuleHeuristic applies the rule's pre-CBQT heuristic decision without
	// costing (Oracle releases prior to 10g, §2.2.1).
	RuleHeuristic
	// RuleOff disables the transformation entirely.
	RuleOff
)

// HeuristicDecider is implemented by rules that have a documented pre-CBQT
// heuristic decision procedure; used in RuleHeuristic mode.
type HeuristicDecider interface {
	// HeuristicVariant returns the variant the heuristic would choose for
	// object o of q (0 = leave untransformed).
	HeuristicVariant(q *qtree.Query, o transform.Object) int
}

// Options configure the CBQT driver.
type Options struct {
	Strategy Strategy
	// IterativeMaxStates bounds the states iterative improvement costs.
	IterativeMaxStates int
	// Parallelism is ignored: every search costs its states in enumeration
	// order on the calling goroutine. The benchmark harness still sets it
	// (benchmark/replay.go and benchmark/verify.go); the field goes with
	// the next change to that harness (ROADMAP item 3(b)).
	Parallelism int
	// CostCutoff enables abandoning states whose cost exceeds the best
	// found so far (§3.4.1): each state prunes against the running minimum
	// of the states costed before it.
	CostCutoff bool
	// AnnotationReuse enables reuse of query sub-tree cost annotations
	// across states (§3.4.2).
	AnnotationReuse bool
	// SkipHeuristics disables the imperative transformation phase
	// (for experiments that isolate one transformation).
	SkipHeuristics bool
	// DisableMergeUnnest turns off the imperative merge flavour of
	// subquery unnesting (used to disable unnesting completely, Figure 3).
	DisableMergeUnnest bool
	// RuleModes overrides the participation of individual rules by name.
	RuleModes map[string]RuleMode
	// Rules overrides the cost-based rule sequence (defaults to
	// transform.CostBasedRules).
	Rules []transform.Rule
	// Seed drives the iterative strategy's pseudo-random walk.
	Seed int64
	// Trace records the structured search-event stream in Stats.Events —
	// every state evaluated with its rule, state vector, outcome and cost;
	// used by the CLI's -trace flag, golden-trace tests and examples.
	Trace bool
	// Metrics, when non-nil, receives the optimization's work counters
	// (cbqt.* and costcache.* names), added once when the optimization
	// finishes. The registry may be shared across concurrent queries:
	// Stats is counted per optimization and never read back from it.
	Metrics *obsv.Registry
	// Budget bounds the transformation search; the zero Budget is
	// unlimited. Exhaustion degrades the search (Stats.Degraded says why)
	// instead of failing the query.
	Budget Budget
	// Faults, when non-nil, is the fault-injection schedule fired at the
	// named sites of the optimize path (see package faultinject). Injected
	// panics and errors degrade the search; they never fail the query.
	Faults *faultinject.Set
	// Check runs the static semantic checker (package check) over the
	// query tree and plan at every seam of the optimize path: the input
	// query, the tree after the heuristic phase, every transformation
	// state evaluated by the search (tree, per-rule contract, and costed
	// plan), the tree after the winning directives are applied, and the
	// final physical plan. A violation in a transformation state or in the
	// winner/heuristic application quarantines the offending rule through
	// the same machinery that isolates panics; a violation in the input
	// query or the final plan fails the optimization. Violations count
	// through Options.Metrics (cbqt.check_violations and per-class
	// counters).
	Check bool
}

// defaultCheck is the Options.Check value DefaultOptions hands out. It is
// false for production callers (the -check flags opt in) and flipped to
// true by this package's test suite, so every differential, fault and
// golden test runs with the static checker armed.
var defaultCheck = false

// fullCloneStates makes evalState cost every state on a full deep copy of
// the query instead of a copy-on-write clone. The searches are bit-for-bit
// identical either way — COW materializes blocks with their original IDs and
// allocates nothing from the base — so the deep copy survives only as the
// reference TestDifferentialCOW and FuzzCOWClone compare against; nothing
// outside this package's tests sets it.
var fullCloneStates = false

// fullHeuristicRepass makes every heuristic re-pass (evalState's and
// applyWinner's) visit every block, as if the base were never known to be at
// a heuristic fixpoint. The passes that skip shared blocks produce the same
// tree by construction; the full passes survive only as the reference the
// equivalence tests compare against. Nothing outside this package's tests
// sets it.
var fullHeuristicRepass = false

// onHandleMismatch, when non-nil, makes applyState re-discover the rule's
// objects on the state's clone before every application and report any
// object whose handle disagrees with the one rediscovery finds at its
// index — the contract that lets a search find its objects once. Only this
// package's tests set it.
var onHandleMismatch func(error)

// DefaultOptions mirror the paper's configuration.
func DefaultOptions() Options {
	return Options{
		Strategy:           StrategyAuto,
		IterativeMaxStates: 24,
		CostCutoff:         true,
		AnnotationReuse:    true,
		Seed:               1,
		Check:              defaultCheck,
	}
}

// Stats reports the work done during one optimization.
type Stats struct {
	// StatesEvaluated counts transformation states costed (state (0,..)
	// included), summed over all transformations.
	StatesEvaluated int
	// StatesByRule breaks StatesEvaluated down per transformation.
	StatesByRule map[string]int
	// BlocksOptimized counts query blocks costed by the physical
	// optimizer, excluding those avoided by annotation reuse.
	BlocksOptimized int
	// AnnotationHits counts block optimizations avoided by reuse (§3.4.2).
	AnnotationHits int
	// OptimizeTime is the total time spent in the driver and physical
	// optimizer.
	OptimizeTime time.Duration
	// Events is the structured search-event stream recorded when
	// Options.Trace is set: rule headers, every state evaluation with its
	// outcome, winners, quarantines and degradations, in state enumeration
	// order (obsv.Normalize strips its timings and work counters for
	// comparison across runs).
	Events []obsv.SearchEvent
	// Degraded records why the search stopped early (empty: it completed).
	Degraded DegradeReason
	// TransformErrors lists transformation failures (recovered panics and
	// injected errors) absorbed during the search.
	TransformErrors []*TransformError
	// QuarantinedRules lists transformations disabled for the rest of the
	// query after a failure, in quarantine order.
	QuarantinedRules []string
	// CheckViolations counts static-checker violations found during this
	// optimization (Options.Check); a clean run keeps it zero.
	CheckViolations int
	// MemoSharedBlocks and MemoMaterializedBlocks profile the copy-on-write
	// state memo: summed over every state evaluated, how many blocks of the
	// state's tree stayed shared with the base versus privately owned
	// (materialized copies plus transformation-created blocks).
	MemoSharedBlocks       int
	MemoMaterializedBlocks int
	// MemoStateBytes sums the approximate private bytes of every state's
	// tree (qtree.OwnedApproxBytes) — the per-state copy cost the memo
	// actually paid.
	MemoStateBytes int64
	// CacheHits/CacheMisses are this optimization's cost-annotation table
	// lookups, counted by the table itself. CacheHits counts the same
	// events as AnnotationHits, measured at the table rather than summed
	// over per-state planners.
	CacheHits   int64
	CacheMisses int64
}

// Optimizer is the CBQT-enabled query optimizer.
type Optimizer struct {
	Cat  *catalog.Catalog
	Opts Options
}

// New creates an optimizer with default options.
func New(cat *catalog.Catalog) *Optimizer {
	return &Optimizer{Cat: cat, Opts: DefaultOptions()}
}

// Result is the outcome of CBQT optimization.
type Result struct {
	// Query is the transformed query tree (the input query mutated by the
	// winning transformation directives).
	Query *qtree.Query
	// Plan is the final physical plan for the transformed query.
	Plan  *optimizer.Plan
	Stats Stats
}

// Optimize runs heuristic transformations, cost-based transformation with
// state-space search, and final physical optimization. The input query is
// mutated (the chosen directives are applied to it).
func (o *Optimizer) Optimize(q *qtree.Query) (*Result, error) {
	return o.OptimizeContext(context.Background(), q)
}

// OptimizeContext is Optimize under a context: cancellation (like every
// other Budget bound) stops the search at the next state boundary and the
// best form found so far is planned and returned, with Stats.Degraded
// recording the reason. The final physical optimization always runs, so a
// plan comes back even when the budget never admitted a single state.
func (o *Optimizer) OptimizeContext(ctx context.Context, q *qtree.Query) (*Result, error) {
	//lint:allow nodeterm OptimizeTime is an observability stat; nothing downstream branches on it
	start := time.Now()
	stats := Stats{StatesByRule: map[string]int{}}

	// The §3.4.2 annotation table lives exactly as long as this search.
	var cache *optimizer.CostCache
	if o.Opts.AnnotationReuse {
		cache = optimizer.NewCostCache()
		cache.Faults = o.Opts.Faults
	}
	tracker := newBudgetTracker(ctx, o.Opts.Budget, q, cache)

	if err := o.checkedInput(q, &stats); err != nil {
		return nil, err
	}
	if !o.Opts.SkipHeuristics {
		fixpoint, err := o.protectedHeuristics(q, &stats)
		if err != nil {
			return nil, err
		}
		tracker.baseFixpoint = fixpoint
	}

	rules := o.Opts.Rules
	if rules == nil {
		rules = transform.CostBasedRules()
	}

	// quarantine disables a failed transformation for the rest of the
	// query: the search continues with the untransformed state.
	quarantined := map[string]bool{}
	quarantine := func(rule string, te *TransformError) {
		stats.TransformErrors = append(stats.TransformErrors, te)
		if !quarantined[rule] {
			quarantined[rule] = true
			stats.QuarantinedRules = append(stats.QuarantinedRules, rule)
		}
		o.traceEvent(&stats, obsv.SearchEvent{
			Ev: obsv.EvQuarantine, Rule: rule, State: te.State, Reason: te.class(),
		})
	}
	// safeFind quarantines rules whose object discovery panics.
	safeFind := func(r transform.Rule) (objs []transform.Object) {
		defer func() {
			if p := recover(); p != nil {
				quarantine(r.Name(), &TransformError{Rule: r.Name(), Panic: p, Stack: stack()})
				objs = nil
			}
		}()
		return r.Find(q)
	}

	// Total object count decides the two-pass degradation (§3.2).
	totalObjects := 0
	for _, r := range rules {
		if o.mode(r) == RuleOff || quarantined[r.Name()] {
			continue
		}
		totalObjects += len(safeFind(r))
	}

	for _, r := range rules {
		if tracker.expired() {
			break // degraded: keep the form chosen so far
		}
		if quarantined[r.Name()] {
			continue
		}
		switch o.mode(r) {
		case RuleOff:
			continue
		case RuleHeuristic:
			if o.applyRuleHeuristically(q, r, quarantine, &stats) {
				tracker.baseFixpoint = false
			}
			continue
		}
		objs := safeFind(r)
		if len(objs) == 0 {
			continue
		}
		strat := o.pickStrategy(len(objs), totalObjects)
		o.traceEvent(&stats, obsv.SearchEvent{
			Ev: obsv.EvRule, Rule: r.Name(), Strategy: strat.String(), Objects: len(objs),
		})
		best, states, err := o.search(q, r, objs, strat, cache, &stats, tracker)
		stats.StatesEvaluated += states
		stats.StatesByRule[r.Name()] += states
		if err != nil {
			var te *TransformError
			if errors.As(err, &te) {
				// One bad rewrite must not lose the query: keep it
				// untransformed by this rule and move on.
				quarantine(r.Name(), te)
				continue
			}
			return nil, err
		}
		// Transfer the winning directives onto the original tree (§3.1).
		winner := obsv.WinnerUntransformed
		if !best.isZero() {
			if o.applyWinner(q, r, objs, best, quarantine, &stats, tracker) {
				winner = obsv.WinnerApplied
			} else {
				winner = obsv.WinnerRolledBack
			}
		}
		o.traceEvent(&stats, obsv.SearchEvent{
			Ev: obsv.EvWinner, Rule: r.Name(), State: stateKey(best), Outcome: winner,
		})
	}

	stats.Degraded = tracker.reason
	if stats.Degraded != DegradeNone {
		o.traceEvent(&stats, obsv.SearchEvent{Ev: obsv.EvDegraded, Reason: string(stats.Degraded)})
	}
	var cacheBytes int64
	if cache != nil {
		stats.CacheHits, stats.CacheMisses = cache.Counts()
		cacheBytes = cache.ApproxBytes()
	}
	for i := range stats.Events {
		stats.Events[i].Seq = i
	}

	// Final physical optimization of the chosen form. Its block count is
	// not added to Stats.BlocksOptimized, which measures state-space
	// evaluation work (Table 1). It runs without the search budget: a
	// degraded optimization must still produce an executable plan.
	p := optimizer.New(o.Cat)
	plan, err := p.Optimize(q)
	if err != nil {
		return nil, err
	}
	if o.Opts.Check {
		if vs := check.Plan(plan); len(vs) > 0 {
			o.countCheckViolations(&stats, vs)
			return nil, fmt.Errorf("cbqt: final plan failed the static checker: %w", vs.Err())
		}
	}
	//lint:allow nodeterm OptimizeTime is an observability stat; nothing downstream branches on it
	stats.OptimizeTime = time.Since(start)
	o.publishMetrics(&stats, cacheBytes)
	return &Result{Query: q, Plan: plan, Stats: stats}, nil
}

// Metric names the driver publishes to Options.Metrics per optimization.
// The degradation counter is suffixed with the reason, e.g.
// "cbqt.degraded.state-cap".
const (
	MetricQueries         = "cbqt.queries"
	MetricStates          = "cbqt.states"
	MetricBlocks          = "cbqt.blocks"
	MetricAnnotationHits  = "cbqt.annotation_hits"
	MetricTransformErrors = "cbqt.transform_errors"
	MetricQuarantines     = "cbqt.quarantines"
	MetricDegradedPrefix  = "cbqt.degraded."
	MetricOptimizeMS      = "cbqt.optimize_ms"
	// MetricCheckViolations counts static-checker violations; the
	// per-class breakdown is published under MetricCheckViolationsPrefix
	// plus the check.Class (e.g. "cbqt.check_violations.type-mismatch").
	MetricCheckViolations       = "cbqt.check_violations"
	MetricCheckViolationsPrefix = "cbqt.check_violations."
	// The copy-on-write state memo: blocks shared with the base vs.
	// materialized per state (counters, summed over states), and the average
	// private bytes one state's tree cost (gauge, per optimization).
	MetricMemoSharedBlocks       = "cbqt.memo.shared_blocks"
	MetricMemoMaterializedBlocks = "cbqt.memo.materialized_blocks"
	MetricMemoStateBytes         = "cbqt.memo.state_bytes"
)

// publishMetrics folds one optimization's Stats, and the size its annotation
// table reached, into Options.Metrics (a no-op on the nil registry).
func (o *Optimizer) publishMetrics(stats *Stats, cacheBytes int64) {
	reg := o.Opts.Metrics
	reg.Counter(MetricQueries).Inc()
	reg.Counter(MetricStates).Add(int64(stats.StatesEvaluated))
	reg.Counter(MetricBlocks).Add(int64(stats.BlocksOptimized))
	reg.Counter(MetricAnnotationHits).Add(int64(stats.AnnotationHits))
	reg.Counter(optimizer.MetricCacheHits).Add(stats.CacheHits)
	reg.Counter(optimizer.MetricCacheMisses).Add(stats.CacheMisses)
	reg.Gauge(optimizer.MetricCacheBytes).SetMax(cacheBytes)
	reg.Counter(MetricTransformErrors).Add(int64(len(stats.TransformErrors)))
	reg.Counter(MetricQuarantines).Add(int64(len(stats.QuarantinedRules)))
	reg.Counter(MetricMemoSharedBlocks).Add(int64(stats.MemoSharedBlocks))
	reg.Counter(MetricMemoMaterializedBlocks).Add(int64(stats.MemoMaterializedBlocks))
	if stats.StatesEvaluated > 0 {
		reg.Gauge(MetricMemoStateBytes).Set(stats.MemoStateBytes / int64(stats.StatesEvaluated))
	}
	if stats.Degraded != DegradeNone {
		reg.Counter(MetricDegradedPrefix + string(stats.Degraded)).Inc()
	}
	reg.Histogram(MetricOptimizeMS, 1, 10, 100, 1000, 10000).
		Observe(float64(stats.OptimizeTime.Milliseconds()))
}

// traceEvent appends a structured search event when tracing is enabled.
func (o *Optimizer) traceEvent(stats *Stats, e obsv.SearchEvent) {
	if o.Opts.Trace {
		stats.Events = append(stats.Events, e)
	}
}

// protectedHeuristics runs the imperative transformation phase with panic
// isolation. The passes mutate a copy-on-write clone of the query, which is
// adopted (qtree.AdoptCOW) only when every pass and check succeeds: a
// panicking, fault-injected or checker-rejected pass simply discards the
// work clone and continues with the untransformed query, with no deep
// backup copy ever taken. Genuine rule errors still propagate. It reports
// whether q is now at a fixpoint of the heuristic rules.
func (o *Optimizer) protectedHeuristics(q *qtree.Query, stats *Stats) (fixpoint bool, err error) {
	work := q.CloneCOW()
	defer func() {
		if p := recover(); p != nil {
			stats.TransformErrors = append(stats.TransformErrors,
				&TransformError{Rule: "heuristics", Panic: p, Stack: stack()})
			o.traceEvent(stats, obsv.SearchEvent{Ev: obsv.EvHeuristics, Outcome: obsv.OutcomeFault, Reason: "panic"})
			fixpoint, err = false, nil
		}
	}()
	converged, herr := o.applyHeuristics(work, false)
	if herr != nil {
		if errors.Is(herr, faultinject.ErrInjected) {
			stats.TransformErrors = append(stats.TransformErrors,
				&TransformError{Rule: "heuristics", Err: herr})
			o.traceEvent(stats, obsv.SearchEvent{Ev: obsv.EvHeuristics, Outcome: obsv.OutcomeFault, Reason: "injected"})
			return false, nil
		}
		return false, herr
	}
	if o.Opts.Check {
		// A heuristic pass that broke the tree — or mutated blocks without
		// materializing them — leaves q untouched; drop the work clone and
		// continue with the pre-heuristics form, like any heuristics fault.
		vs := check.Aliasing(work)
		vs = append(vs, check.Query(work)...)
		if len(vs) > 0 {
			o.countCheckViolations(stats, vs)
			stats.TransformErrors = append(stats.TransformErrors,
				&TransformError{Rule: "heuristics", Err: vs})
			o.traceCheckFault(stats)
			return false, nil
		}
	}
	q.AdoptCOW(work)
	o.traceEvent(stats, obsv.SearchEvent{Ev: obsv.EvHeuristics, Outcome: "ok"})
	return converged, nil
}

// applyWinner transfers the winning directives (and the heuristic re-pass
// they enable) onto the original tree, protected against panics: the state
// is applied to a copy-on-write work clone that is adopted only when every
// step and check succeeds. On any failure the work clone is discarded — q
// was never mutated, its from-ID allocation is untouched, and the SQL the
// non-fault path generates is unchanged — and the rule is quarantined. On
// success, tracker.baseFixpoint records whether the re-pass converged.
func (o *Optimizer) applyWinner(q *qtree.Query, r transform.Rule, objs []transform.Object, best state, quarantine func(string, *TransformError), stats *Stats, tracker *budgetTracker) (applied bool) {
	work := q.CloneCOW()
	fail := func(p any, err error, stk string) {
		quarantine(r.Name(), &TransformError{Rule: r.Name(), State: stateKey(best), Panic: p, Err: err, Stack: stk})
	}
	defer func() {
		if p := recover(); p != nil {
			fail(p, nil, stack())
			applied = false
		}
	}()
	if err := o.applyState(work, r, objs, best); err != nil {
		fail(nil, err, "")
		return false
	}
	if o.Opts.Check {
		if vs := check.CheckContract(r.Name(), check.Summarize(q), work); len(vs) > 0 {
			o.countCheckViolations(stats, vs)
			fail(nil, vs, "")
			return false
		}
	}
	fixpoint := false
	if !o.Opts.SkipHeuristics {
		converged, err := o.applyHeuristics(work, tracker.baseFixpoint && !fullHeuristicRepass)
		if err != nil {
			fail(nil, err, "")
			return false
		}
		fixpoint = converged
	}
	if !o.adoptChecked(q, work, stats, fail) {
		return false
	}
	tracker.baseFixpoint = fixpoint
	return true
}

// adoptChecked adopts the work clone into q, after the static checker
// (Options.Check) accepts its tree and its copy-on-write discipline; on a
// violation it reports through fail and leaves q untouched.
func (o *Optimizer) adoptChecked(q, work *qtree.Query, stats *Stats, fail func(any, error, string)) bool {
	if o.Opts.Check {
		vs := check.Aliasing(work)
		vs = append(vs, check.Query(work)...)
		if len(vs) > 0 {
			o.countCheckViolations(stats, vs)
			fail(nil, vs, "")
			return false
		}
	}
	q.AdoptCOW(work)
	return true
}

// applyHeuristics runs the heuristic phase's rules over q to a fixpoint
// and reports whether it converged. skipShared says q's copy-on-write base
// is at a fixpoint, so blocks q shares with it need no visit.
func (o *Optimizer) applyHeuristics(q *qtree.Query, skipShared bool) (bool, error) {
	if err := o.Opts.Faults.Fire("heuristics"); err != nil {
		return false, err
	}
	rules := transform.Heuristics()
	if o.Opts.DisableMergeUnnest {
		// Run the heuristic set minus merge unnesting.
		kept := rules[:0]
		for _, r := range rules {
			if _, isUnnest := r.(*transform.UnnestMerge); !isUnnest {
				kept = append(kept, r)
			}
		}
		rules = kept
	}
	return transform.ApplyHeuristicRules(q, rules, skipShared)
}

func (o *Optimizer) mode(r transform.Rule) RuleMode {
	if m, ok := o.Opts.RuleModes[r.Name()]; ok {
		return m
	}
	return RuleCostBased
}

// applyRuleHeuristically applies the rule's pre-CBQT heuristic decision to
// every object (releases prior to Oracle 10g, §2.2.1), protected like
// applyWinner: the decisions are applied to a copy-on-write work clone, each
// application fires the "apply:<rule>" site, and the clone is adopted only
// when every step and check succeeds. A panic, an injected error or a
// checker violation discards the clone and quarantines the rule. It reports
// whether q changed.
func (o *Optimizer) applyRuleHeuristically(q *qtree.Query, r transform.Rule, quarantine func(string, *TransformError), stats *Stats) (changed bool) {
	hd, ok := r.(HeuristicDecider)
	if !ok {
		return false // no heuristic counterpart: leave untransformed
	}
	work := q.CloneCOW()
	fail := func(p any, err error, stk string) {
		quarantine(r.Name(), &TransformError{Rule: r.Name(), Panic: p, Err: err, Stack: stk})
	}
	defer func() {
		if p := recover(); p != nil {
			fail(p, nil, stack())
			changed = false
		}
	}()
	// Objects shift as transformations apply; re-discover each round.
	for guard := 0; guard < 32; guard++ {
		applied := false
		for _, obj := range r.Find(work) {
			v := hd.HeuristicVariant(work, obj)
			if v == 0 {
				continue
			}
			if err := o.Opts.Faults.Fire("apply:" + r.Name()); err != nil {
				fail(nil, err, "")
				return false
			}
			if err := r.Apply(work, obj, v); err != nil {
				continue // treat as inapplicable
			}
			applied = true
			break // re-discover objects after mutation
		}
		if !applied {
			break
		}
		changed = true
	}
	if !changed {
		return false
	}
	if o.Opts.Check {
		if vs := check.CheckContract(r.Name(), check.Summarize(q), work); len(vs) > 0 {
			o.countCheckViolations(stats, vs)
			fail(nil, vs, "")
			return false
		}
	}
	return o.adoptChecked(q, work, stats, fail)
}

// The search-strategy limits of §3.2, which picks strategies by "a fixed
// threshold": "if a query block contains a small number of subqueries, we
// use exhaustive search, but if the number exceeds a fixed threshold,
// linear".
const (
	// exhaustiveThreshold is the largest per-transformation object count
	// StrategyAuto enumerates exhaustively.
	exhaustiveThreshold = 4
	// twoPassThreshold is the total transformation-object count in the
	// query above which StrategyAuto degrades every search to two-pass.
	twoPassThreshold = 10
	// iterativeRestarts bounds the random restarts of iterative
	// improvement.
	iterativeRestarts = 3
)

// pickStrategy implements the automatic selection (§3.2).
func (o *Optimizer) pickStrategy(n, totalObjects int) Strategy {
	if o.Opts.Strategy != StrategyAuto {
		return o.Opts.Strategy
	}
	if totalObjects > twoPassThreshold {
		return StrategyTwoPass
	}
	if n <= exhaustiveThreshold {
		return StrategyExhaustive
	}
	return StrategyLinear
}

// state assigns a variant (0 = untransformed) to each object.
type state []int

func (s state) isZero() bool {
	for _, v := range s {
		if v != 0 {
			return false
		}
	}
	return true
}

func (s state) clone() state { return append(state(nil), s...) }

// applyState applies a state to query q in place, each object through its
// handle, firing the "apply:<rule>" fault-injection site once per object
// application.
func (o *Optimizer) applyState(q *qtree.Query, r transform.Rule, objs []transform.Object, s state) error {
	// Objects are applied from the last to the first: a later object never
	// sits in front of an earlier one in the same block, so the conjunct
	// and from positions earlier handles name stay put.
	for obj := len(s) - 1; obj >= 0; obj-- {
		if s[obj] == 0 {
			continue
		}
		if err := o.Opts.Faults.Fire("apply:" + r.Name()); err != nil {
			return err
		}
		if onHandleMismatch != nil {
			checkHandle(q, r, objs, obj)
		}
		if err := r.Apply(q, objs[obj], s[obj]); err != nil {
			return err
		}
	}
	return nil
}

// checkHandle compares object obj's handle with the object rediscovery on
// q finds at the same index, reporting a disagreement to onHandleMismatch.
func checkHandle(q *qtree.Query, r transform.Rule, objs []transform.Object, obj int) {
	want := objs[obj]
	want.Block = q.Resolve(want.Block)
	found := r.Find(q)
	if obj >= len(found) || found[obj] != want {
		onHandleMismatch(fmt.Errorf("%s object %d of %d: handle %+v, rediscovery finds %d objects: %+v",
			r.Name(), obj, len(objs), want, len(found), found))
	}
}

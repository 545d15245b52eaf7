package cbqt

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"time"

	"repro/internal/check"
	"repro/internal/faultinject"
	"repro/internal/obsv"
	"repro/internal/optimizer"
	"repro/internal/qtree"
	"repro/internal/transform"
)

// infeasible marks states whose transformation could not be applied.
var errInfeasible = errors.New("cbqt: state infeasible")

// ruleSearch is one rule's state-space search over the objects its Find
// returned on the base query q. All four strategies cost their states
// through cost, one state at a time in the order the strategy visits them:
// the budget admits each state just before it is costed, each state is cut
// off at the cheapest cost costed before it in the rule (§3.4.1), and the
// first faulting state ends the search. The same running minimum picks the
// winner: a state costed strictly below it becomes best, kept with the tree
// evalState built for it. Every state records its counters and trace events
// straight into the optimization's Stats.
type ruleSearch struct {
	o    *Optimizer
	q    *qtree.Query
	r    transform.Rule
	objs []transform.Object
	// baseFixpoint records that q is at a fixpoint of the heuristic rules,
	// so a state's heuristic re-pass may skip the blocks it shares with q.
	baseFixpoint bool
	cache        *optimizer.CostCache
	stats        *Stats
	tracker      *budgetTracker

	// reused, when non-nil, is the state the decision store holds for the
	// rule over these objects: run costs it and the untransformed state
	// (reuse) instead of searching.
	reused state
	// record marks a search whose winner the decision store will hold: a
	// linear search makes its second pass (linear).
	record bool

	// Set by run before the first state is costed.
	variants []int
	// preSummary is q's contract summary and baseSnap fingerprints q's
	// tree (Options.Check only). q is not mutated until the winner's tree
	// is adopted, after the search; every state checks the rule's contract
	// against preSummary and re-verifies baseSnap, since copy-on-write
	// states share q's blocks and any mutation of them is corruption.
	preSummary *check.Summary
	baseSnap   *check.TreeSnapshot

	min   float64   // the cheapest cost so far: the next state's cut-off
	best  evaluated // the first state costed at min
	count int       // states costed
	// held is the private bytes of a tree kept besides best's (the first
	// linear pass's winner during the second), charged like best's.
	held int64
}

// evaluated is one costed state with the tree evalState built for it: the
// base's copy-on-write clone with the state applied, re-passed by the
// heuristics and, under Options.Check, checked. The zero value is the
// untransformed state with no tree.
type evaluated struct {
	s        state
	cost     float64
	tree     *qtree.Query
	fixpoint bool  // the tree's heuristic re-pass converged
	bytes    int64 // the tree's private bytes (qtree.COWStats)
}

// cost admits, costs and records state s, returning +Inf when s is
// infeasible or cut off. A state costed strictly below the running minimum
// becomes rs.best. It returns errBudgetStop when the budget admits no more
// states and the fault when s faulted; either ends the search.
func (rs *ruleSearch) cost(s state) (float64, error) {
	if !rs.tracker.admit(rs.best.bytes + rs.held) {
		return 0, errBudgetStop
	}
	e, err := rs.evalState(s)
	if errors.Is(err, errInfeasible) {
		return math.Inf(1), nil
	}
	if err != nil {
		return 0, err
	}
	rs.count++
	if e.cost < rs.min {
		rs.min, rs.best = e.cost, e
	}
	return e.cost, nil
}

// evalState gives the state its own copy-on-write clone of the query,
// applies the state through the handles of the objects the search found on
// the base (rs.objs), re-runs the imperative transformations that the
// new constructs may enable (§3.1) over the blocks the state owns, and
// invokes the physical optimizer in cost-only mode, cut off at rs.min. A
// costed state comes back with its tree; a cut-off one with cost +Inf.
//
// It is the fault boundary of the search: the "state:<rule>" injection site
// fires first, any panic out of the transformation or the planner is
// recovered into a *TransformError (the caller quarantines the rule),
// injected errors skip just this state, and a planner budget abort maps to
// errBudgetStop ("stop searching, keep the best so far").
func (rs *ruleSearch) evalState(s state) (e evaluated, err error) {
	o, r, stats := rs.o, rs.r, rs.stats
	// stateEvent emits the state's EvState trace record. Exactly one fires
	// per evaluation, at the return point that decided the outcome.
	began := time.Time{}
	if o.Opts.Trace {
		//lint:allow nodeterm trace timings are observability-only; golden-trace comparisons strip ElapsedUS
		began = time.Now()
	}
	stateEvent := func(outcome, reason string, c float64, blocks, hits int) {
		if !o.Opts.Trace {
			return
		}
		o.traceEvent(stats, obsv.SearchEvent{
			Ev: obsv.EvState, Rule: r.Name(), State: stateKey(s),
			Outcome: outcome, Reason: reason, Cost: c,
			Blocks: blocks, CacheHits: hits,
			//lint:allow nodeterm trace timings are observability-only; golden-trace comparisons strip ElapsedUS
			ElapsedUS: time.Since(began).Microseconds(),
		})
	}
	defer func() {
		if p := recover(); p != nil {
			e = evaluated{}
			err = &TransformError{Rule: r.Name(), State: stateKey(s), Panic: p, Stack: stack()}
			stateEvent(obsv.OutcomeFault, "panic", 0, 0, 0)
		}
	}()
	if ferr := o.Opts.Faults.Fire("state:" + r.Name()); ferr != nil {
		stats.TransformErrors = append(stats.TransformErrors,
			&TransformError{Rule: r.Name(), State: stateKey(s), Err: ferr})
		stateEvent(obsv.OutcomeFault, "injected", 0, 0, 0)
		return evaluated{}, errInfeasible
	}
	// Each state gets its own copy of the query (§3.1): a copy-on-write
	// clone sharing every block the state does not rewrite with the base.
	var clone *qtree.Query
	objs := rs.objs
	if fullCloneStates {
		// The differential tests' reference copy: handles name the base's
		// blocks, so find the objects again on the untouched deep copy.
		clone, _ = rs.q.Clone()
		objs = r.Find(clone)
	} else {
		clone = rs.q.CloneCOW()
	}
	if aerr := o.applyState(clone, r, objs, s); aerr != nil {
		reason := "inapplicable"
		if errors.Is(aerr, faultinject.ErrInjected) {
			reason = "injected"
		}
		stateEvent(obsv.OutcomeInfeasible, reason, 0, 0, 0)
		return evaluated{}, errInfeasible
	}
	if o.Opts.Check && !s.isZero() {
		// Per-rule contract, before the heuristic re-pass: heuristics may
		// legally drop tables (join elimination), the rule may not.
		if vs := check.CheckContract(r.Name(), rs.preSummary, clone); len(vs) > 0 {
			stateEvent(obsv.OutcomeFault, checkEventReason, 0, 0, 0)
			return evaluated{}, o.checkFault(r.Name(), stateKey(s), stats, vs)
		}
	}
	if !o.Opts.SkipHeuristics && !s.isZero() {
		// Blocks the state shares with a base at a fixpoint need no visit.
		converged, herr := o.applyHeuristics(clone, rs.baseFixpoint && !fullHeuristicRepass)
		if herr != nil {
			if errors.Is(herr, faultinject.ErrInjected) {
				stats.TransformErrors = append(stats.TransformErrors,
					&TransformError{Rule: r.Name(), State: stateKey(s), Err: herr})
				stateEvent(obsv.OutcomeFault, "injected", 0, 0, 0)
				return evaluated{}, errInfeasible
			}
			return evaluated{}, herr
		}
		e.fixpoint = converged
	}
	if o.Opts.Check && !s.isZero() {
		// Full semantic check of the state the physical optimizer is about
		// to trust (the zero state equals the already-checked input), plus
		// the copy-on-write discipline: the state's tree may share blocks
		// only with the base, the owned region must be upward-closed, and
		// the base itself must read back exactly as it was snapshotted when
		// the search began — any deviation means a transformation mutated
		// shared structure and is quarantined like a panic.
		vs := check.Aliasing(clone)
		if rs.baseSnap != nil {
			vs = append(vs, rs.baseSnap.Verify()...)
		}
		vs = append(vs, check.Query(clone)...)
		if len(vs) > 0 {
			stateEvent(obsv.OutcomeFault, checkEventReason, 0, 0, 0)
			return evaluated{}, o.checkFault(r.Name(), stateKey(s), stats, vs)
		}
	}
	// Memo accounting: how much of this state's tree stayed shared with the
	// base versus privately materialized, and the private bytes the state
	// cost. Counted for every state that reaches the planner, before the
	// cost cut-off can intervene.
	shared, owned, bytes := clone.COWStats()
	stats.MemoSharedBlocks += shared
	stats.MemoMaterializedBlocks += owned
	stats.MemoStateBytes += bytes
	e.bytes = bytes
	p := optimizer.New(o.Cat)
	p.Binds = o.Binds
	p.CostOnly = true
	p.Cache = rs.cache
	p.Ctx = rs.tracker.ctx
	p.Deadline = rs.tracker.deadline
	if o.Opts.CostCutoff && rs.min > 0 && !math.IsInf(rs.min, 1) {
		p.Cutoff = rs.min
	}
	plan, perr := p.Optimize(clone)
	stats.BlocksOptimized += p.Counters.BlocksOptimized
	stats.AnnotationHits += p.Counters.CacheHits
	if perr != nil {
		if errors.Is(perr, optimizer.ErrCutoff) {
			// §3.4.1: the state exceeded the best cost; abandon it.
			stateEvent(obsv.OutcomeCut, "", 0, p.Counters.BlocksOptimized, p.Counters.CacheHits)
			return evaluated{cost: math.Inf(1)}, nil
		}
		if errors.Is(perr, optimizer.ErrBudget) {
			rs.tracker.expired() // record deadline vs. canceled
			stateEvent(obsv.OutcomeBudget, "wall-clock", 0, p.Counters.BlocksOptimized, p.Counters.CacheHits)
			return evaluated{}, errBudgetStop
		}
		return evaluated{}, perr
	}
	if o.Opts.Check && !s.isZero() {
		if vs := check.Plan(plan); len(vs) > 0 {
			stateEvent(obsv.OutcomeFault, checkEventReason, 0, 0, 0)
			return evaluated{}, o.checkFault(r.Name(), stateKey(s), stats, vs)
		}
	}
	stateEvent(obsv.OutcomeCosted, "", plan.Cost.Total, p.Counters.BlocksOptimized, p.Counters.CacheHits)
	e.s, e.cost, e.tree = s, plan.Cost.Total, clone
	return e, nil
}

// run sets up the search over rs.objs, runs the chosen strategy and returns
// the cheapest state it costed, the zero state when none cost a finite
// amount. A budget stop keeps the cheapest state costed before it; any other
// error goes to OptimizeContext, which quarantines the rule for a
// *TransformError and fails the optimization otherwise.
func (rs *ruleSearch) run(strat Strategy) (evaluated, error) {
	rs.variants = make([]int, len(rs.objs))
	for i, obj := range rs.objs {
		rs.variants[i] = obj.Variants
	}
	rs.min = math.Inf(1)
	if rs.o.Opts.Check {
		rs.preSummary = check.Summarize(rs.q)
		rs.baseSnap = check.Snapshot(rs.q)
	}
	var err error
	switch {
	case rs.reused != nil:
		err = rs.reuse()
	case strat == StrategyLinear:
		err = rs.linear()
	case strat == StrategyTwoPass:
		err = rs.twoPass()
	case strat == StrategyIterative:
		err = rs.iterative()
	default:
		err = rs.exhaustive()
	}
	if err != nil && !errors.Is(err, errBudgetStop) {
		return evaluated{}, err
	}
	return rs.best, nil
}

// reapply builds w's tree again on a copy-on-write clone of the base, for
// the fullCloneStates reference only: qtree.AdoptCOW refuses its deep
// copies. The state was applied and re-passed once already, so a failure
// here is a bug in the reference.
func (rs *ruleSearch) reapply(w evaluated) evaluated {
	w.tree = rs.q.CloneCOW()
	err := rs.o.applyState(w.tree, rs.r, rs.objs, w.s)
	if err == nil && !rs.o.Opts.SkipHeuristics {
		w.fixpoint, err = rs.o.applyHeuristics(w.tree, rs.baseFixpoint && !fullHeuristicRepass)
	}
	if err != nil {
		panic(err)
	}
	return w
}

// exhaustive costs every combination in enumeration order: with binary
// objects that is the paper's 2^N states; with V-variant objects,
// prod(V_i + 1). The winner is the cheapest state, ties going to the
// earlier in enumeration order.
func (rs *ruleSearch) exhaustive() error {
	for _, s := range enumerateStates(rs.variants) {
		if _, err := rs.cost(s); err != nil {
			return err
		}
	}
	return nil
}

// linear implements the dynamic-programming style linear search (§3.2): it
// fixes objects one at a time, keeping a transformation of object i only if
// it lowers the cost given the decisions already made, ties going to the
// smaller variant. It evaluates N+1 states for binary objects. Every state
// it keeps is the running minimum's winner, so the decisions made so far are
// rs.best.
//
// A search whose winner the decision store records (rs.record) makes a
// second pass, fixing the objects in reverse order from the untransformed
// state under its own running minimum, and keeps the cheaper of the two
// winners: the decision then speaks for every later text of its template,
// so it is worth N more states once, and one pass's greedy order can miss a
// much cheaper state that the other order finds.
func (rs *ruleSearch) linear() error {
	c, err := rs.cost(make(state, len(rs.variants)))
	if err != nil || math.IsInf(c, 1) {
		return err // a fault-skipped baseline stays untransformed
	}
	zero := rs.best
	order := make([]int, len(rs.variants))
	for i := range order {
		order[i] = i
	}
	if err := rs.linearPass(order); err != nil || !rs.record {
		return err
	}
	first := rs.best
	rs.min, rs.best, rs.held = zero.cost, zero, first.bytes
	slices.Reverse(order)
	err = rs.linearPass(order)
	rs.held = 0
	if first.cost <= rs.min {
		rs.min, rs.best = first.cost, first
	}
	return err
}

// linearPass fixes the objects in order, each against rs.best.
func (rs *ruleSearch) linearPass(order []int) error {
	for _, i := range order {
		cur := rs.best.s
		for v := 1; v <= rs.variants[i]; v++ {
			trial := cur.clone()
			trial[i] = v
			if _, err := rs.cost(trial); err != nil {
				return err
			}
		}
	}
	return nil
}

// twoPass compares only the all-untransformed and all-transformed states
// (§3.2): the zero state's cost is the transformed state's cut-off.
func (rs *ruleSearch) twoPass() error {
	c, err := rs.cost(make(state, len(rs.variants)))
	if err != nil || math.IsInf(c, 1) {
		return err // a fault-skipped baseline stays untransformed
	}
	all := make(state, len(rs.variants))
	for i := range all {
		all[i] = 1 // first variant of every object
	}
	_, err = rs.cost(all)
	return err
}

// strategyReuse names the reuse path in the EvRule trace event.
const strategyReuse = "reuse"

// reuse costs the untransformed state and then the stored decision
// rs.reused, cut off at the first's cost, through the same loop as every
// search, so the budget, the fault sites and Options.Check hold for both:
// the cheaper of the two wins. A stored untransformed decision costs one
// state.
func (rs *ruleSearch) reuse() error {
	c, err := rs.cost(make(state, len(rs.variants)))
	if err != nil || math.IsInf(c, 1) {
		return err // a fault-skipped baseline stays untransformed
	}
	if rs.reused.isZero() {
		return nil
	}
	_, err = rs.cost(rs.reused)
	return err
}

// iterative performs iterative improvement (§3.2): from a random initial
// state, repeatedly move to a cheaper neighbour (one object changed) until
// a local minimum; restart with a different initial state, bounded by
// iterativeRestarts and iterativeMaxStates.
//
// A neighbour is kept only if it beats the climb's current state, so no
// state of a climb is cheaper than the state the climb reaches: the cheapest
// state costed, which the running minimum keeps, is the untransformed state
// or the end of a climb.
func (rs *ruleSearch) iterative() error {
	n := len(rs.variants)
	rng := rand.New(rand.NewSource(iterativeSeed))
	seen := map[string]bool{}

	// eval costs s unless this search has costed it before (fresh false).
	eval := func(s state) (float64, bool, error) {
		key := stateKey(s)
		if seen[key] {
			return 0, false, nil
		}
		seen[key] = true
		c, err := rs.cost(s)
		return c, true, err
	}

	// Always include the untransformed state.
	if _, _, err := eval(make(state, n)); err != nil {
		return err
	}

	for restart := 0; restart < iterativeRestarts && rs.count < iterativeMaxStates; restart++ {
		cur := make(state, n)
		for i := range cur {
			cur[i] = rng.Intn(rs.variants[i] + 1)
		}
		curCost, fresh, err := eval(cur)
		if err != nil {
			return err
		}
		if !fresh {
			continue
		}
		// Hill-climb to a local minimum.
		improved := true
		for improved && rs.count < iterativeMaxStates {
			improved = false
			for i := 0; i < n && rs.count < iterativeMaxStates; i++ {
				for v := 0; v <= rs.variants[i]; v++ {
					if v == cur[i] {
						continue
					}
					nb := cur.clone()
					nb[i] = v
					nbCost, fresh, err := eval(nb)
					if err != nil {
						return err
					}
					if fresh && nbCost < curCost {
						cur, curCost = nb, nbCost
						improved = true
					}
				}
			}
		}
	}
	return nil
}

// enumerateStates lists every state of the mixed-radix space in canonical
// enumeration order, digit 0 least significant.
func enumerateStates(variants []int) []state {
	n := len(variants)
	total := 1
	for _, v := range variants {
		total *= v + 1
	}
	out := make([]state, 0, total)
	cur := make(state, n)
	for {
		out = append(out, cur.clone())
		i := 0
		for i < n {
			cur[i]++
			if cur[i] <= variants[i] {
				break
			}
			cur[i] = 0
			i++
		}
		if i == n {
			return out
		}
	}
}

func stateKey(s state) string {
	b := make([]byte, len(s))
	for i, v := range s {
		b[i] = byte('0' + v)
	}
	return string(b)
}

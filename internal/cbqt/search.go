package cbqt

import (
	"errors"
	"math"
	"math/rand"
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

// evalState gives the state its own copy-on-write clone of the query,
// applies the state through the handles of the objects the search found on
// the base (tracker.objs), re-runs the imperative transformations that the
// new constructs may enable (§3.1) over the blocks the state owns, and
// invokes the physical optimizer in cost-only mode.
//
// It is the fault boundary of the search: the "state:<rule>" injection site
// fires first, any panic out of the transformation or the planner is
// recovered into a *TransformError (the caller quarantines the rule),
// injected errors skip just this state, and a planner budget abort maps to
// errBudgetStop ("stop searching, keep the best so far").
func (o *Optimizer) evalState(q *qtree.Query, r transform.Rule, s state, cache *optimizer.CostCache, cutoff float64, stats *Stats, tracker *budgetTracker) (cost float64, err error) {
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
			cost = 0
			err = &TransformError{Rule: r.Name(), State: stateKey(s), Panic: p, Stack: stack()}
			stateEvent(obsv.OutcomeFault, "panic", 0, 0, 0)
		}
	}()
	if ferr := o.Opts.Faults.Fire("state:" + r.Name()); ferr != nil {
		stats.TransformErrors = append(stats.TransformErrors,
			&TransformError{Rule: r.Name(), State: stateKey(s), Err: ferr})
		stateEvent(obsv.OutcomeFault, "injected", 0, 0, 0)
		return 0, errInfeasible
	}
	// Each state gets its own copy of the query (§3.1): a copy-on-write
	// clone sharing every block the state does not rewrite with the base.
	var clone *qtree.Query
	objs := tracker.objs
	if fullCloneStates {
		// The differential tests' reference copy: handles name the base's
		// blocks, so find the objects again on the untouched deep copy.
		clone, _ = q.Clone()
		objs = r.Find(clone)
	} else {
		clone = q.CloneCOW()
	}
	if aerr := o.applyState(clone, r, objs, s); aerr != nil {
		reason := "inapplicable"
		if errors.Is(aerr, faultinject.ErrInjected) {
			reason = "injected"
		}
		stateEvent(obsv.OutcomeInfeasible, reason, 0, 0, 0)
		return 0, errInfeasible
	}
	if o.Opts.Check && !s.isZero() {
		// Per-rule contract, before the heuristic re-pass: heuristics may
		// legally drop tables (join elimination), the rule may not.
		if vs := check.CheckContract(r.Name(), tracker.preSummary, clone); len(vs) > 0 {
			stateEvent(obsv.OutcomeFault, checkEventReason, 0, 0, 0)
			return 0, o.checkFault(r.Name(), stateKey(s), stats, vs)
		}
	}
	if !o.Opts.SkipHeuristics && !s.isZero() {
		// Blocks the state shares with a base at a fixpoint need no visit.
		if _, herr := o.applyHeuristics(clone, tracker.baseFixpoint && !fullHeuristicRepass); herr != nil {
			if errors.Is(herr, faultinject.ErrInjected) {
				stats.TransformErrors = append(stats.TransformErrors,
					&TransformError{Rule: r.Name(), State: stateKey(s), Err: herr})
				stateEvent(obsv.OutcomeFault, "injected", 0, 0, 0)
				return 0, errInfeasible
			}
			return 0, herr
		}
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
		if tracker.baseSnap != nil {
			vs = append(vs, tracker.baseSnap.Verify()...)
		}
		vs = append(vs, check.Query(clone)...)
		if len(vs) > 0 {
			stateEvent(obsv.OutcomeFault, checkEventReason, 0, 0, 0)
			return 0, o.checkFault(r.Name(), stateKey(s), stats, vs)
		}
	}
	// Memo accounting: how much of this state's tree stayed shared with the
	// base versus privately materialized, and the private bytes the state
	// cost. Counted for every state that reaches the planner, before the
	// cost cut-off can intervene.
	shared, owned := clone.COWStats()
	stats.MemoSharedBlocks += shared
	stats.MemoMaterializedBlocks += owned
	stats.MemoStateBytes += clone.OwnedApproxBytes()
	p := optimizer.New(o.Cat)
	p.Binds = o.Binds
	p.CostOnly = true
	p.Cache = cache
	p.Ctx = tracker.ctx
	p.Deadline = tracker.deadline
	if o.Opts.CostCutoff && cutoff > 0 && !math.IsInf(cutoff, 1) {
		p.Cutoff = cutoff
	}
	plan, perr := p.Optimize(clone)
	stats.BlocksOptimized += p.Counters.BlocksOptimized
	stats.AnnotationHits += p.Counters.CacheHits
	if perr != nil {
		if errors.Is(perr, optimizer.ErrCutoff) {
			// §3.4.1: the state exceeded the best cost; abandon it.
			stateEvent(obsv.OutcomeCut, "", 0, p.Counters.BlocksOptimized, p.Counters.CacheHits)
			return math.Inf(1), nil
		}
		if errors.Is(perr, optimizer.ErrBudget) {
			tracker.expired() // record deadline vs. canceled
			stateEvent(obsv.OutcomeBudget, "wall-clock", 0, p.Counters.BlocksOptimized, p.Counters.CacheHits)
			return 0, errBudgetStop
		}
		return 0, perr
	}
	if o.Opts.Check && !s.isZero() {
		if vs := check.Plan(plan); len(vs) > 0 {
			stateEvent(obsv.OutcomeFault, checkEventReason, 0, 0, 0)
			return 0, o.checkFault(r.Name(), stateKey(s), stats, vs)
		}
	}
	stateEvent(obsv.OutcomeCosted, "", plan.Cost.Total, p.Counters.BlocksOptimized, p.Counters.CacheHits)
	return plan.Cost.Total, nil
}

// search runs the chosen strategy and returns the best state found plus
// the number of states evaluated.
func (o *Optimizer) search(q *qtree.Query, r transform.Rule, objs []transform.Object, strat Strategy, cache *optimizer.CostCache, stats *Stats, tracker *budgetTracker) (state, int, error) {
	variants := make([]int, len(objs))
	for i, obj := range objs {
		variants[i] = obj.Variants
	}
	tracker.objs = objs
	if o.Opts.Check {
		// The contract pre-state for every state this search evaluates (q is
		// not mutated until the winner is applied, after the search), and the
		// base-tree fingerprint every state verifies against: COW states share
		// q's blocks, so any mutation of them is corruption.
		tracker.preSummary = check.Summarize(q)
		tracker.baseSnap = check.Snapshot(q)
	}
	switch strat {
	case StrategyLinear:
		return o.searchLinear(q, r, variants, cache, stats, tracker)
	case StrategyTwoPass:
		return o.searchTwoPass(q, r, variants, cache, stats, tracker)
	case StrategyIterative:
		return o.searchIterative(q, r, variants, cache, stats, tracker)
	}
	return o.searchExhaustive(q, r, variants, cache, stats, tracker)
}

// searchExhaustive costs every combination as one batch: with binary
// objects that is the paper's 2^N states; with V-variant objects,
// prod(V_i + 1). A state cap trims the space to a prefix of the enumeration;
// budget exhaustion returns the best state costed so far (the zero state
// when nothing was costed yet).
func (o *Optimizer) searchExhaustive(q *qtree.Query, r transform.Rule, variants []int, cache *optimizer.CostCache, stats *Stats, tracker *budgetTracker) (state, int, error) {
	states := enumerateStates(variants)
	granted := tracker.reserve(len(states))
	if granted == 0 {
		return make(state, len(variants)), 0, nil
	}
	states = states[:granted]
	results := o.evalBatch(q, r, states, cache, math.Inf(1), tracker)
	bestIdx, _, count, err := mergeBatch(results, stats)
	if err != nil {
		return nil, count, err
	}
	if bestIdx < 0 {
		// Everything infeasible or abandoned: keep the untransformed state.
		return make(state, len(variants)), count, nil
	}
	return states[bestIdx], count, nil
}

// searchLinear implements the dynamic-programming style linear search
// (§3.2): it fixes objects one at a time, keeping a transformation of object
// i only if it lowers the cost given the decisions already made, ties going
// to the smaller variant. It evaluates N+1 states for binary objects. The
// variants of one object are a batch; the per-object decisions are
// sequential, each fixing the context of the next.
func (o *Optimizer) searchLinear(q *qtree.Query, r transform.Rule, variants []int, cache *optimizer.CostCache, stats *Stats, tracker *budgetTracker) (state, int, error) {
	n := len(variants)
	cur := make(state, n)
	if tracker.reserve(1) == 0 {
		return cur, 0, nil
	}
	bestCost, err := o.evalState(q, r, cur, cache, 0, stats, tracker)
	if err != nil {
		if errors.Is(err, errBudgetStop) || errors.Is(err, errInfeasible) {
			return cur, 0, nil
		}
		return nil, 1, err
	}
	count := 1
	for i := 0; i < n; i++ {
		trials := make([]state, 0, variants[i])
		for v := 1; v <= variants[i]; v++ {
			trial := cur.clone()
			trial[i] = v
			trials = append(trials, trial)
		}
		if len(trials) == 0 {
			continue
		}
		granted := tracker.reserve(len(trials))
		capped := granted < len(trials)
		trials = trials[:granted]
		if granted > 0 {
			results := o.evalBatch(q, r, trials, cache, bestCost, tracker)
			bestIdx, cost, batchCount, err := mergeBatch(results, stats)
			count += batchCount
			if err != nil {
				return nil, count, err
			}
			if bestIdx >= 0 && cost < bestCost {
				bestCost = cost
				cur[i] = bestIdx + 1
			}
		}
		if capped {
			return cur, count, nil // degraded mid-object, decisions so far stand
		}
	}
	return cur, count, nil
}

// searchTwoPass compares only the all-untransformed and all-transformed
// states (§3.2), as one batch of two: the zero state's cost is the
// transformed state's cut-off.
func (o *Optimizer) searchTwoPass(q *qtree.Query, r transform.Rule, variants []int, cache *optimizer.CostCache, stats *Stats, tracker *budgetTracker) (state, int, error) {
	n := len(variants)
	zero := make(state, n)
	all := make(state, n)
	for i := range all {
		all[i] = 1 // first variant of every object
	}
	granted := tracker.reserve(2)
	if granted == 0 {
		return zero, 0, nil
	}
	states := []state{zero, all}[:granted]
	results := o.evalBatch(q, r, states, cache, math.Inf(1), tracker)
	bestIdx, _, count, err := mergeBatch(results, stats)
	if zerr := results[0].err; zerr != nil {
		if errors.Is(zerr, errInfeasible) || errors.Is(zerr, errBudgetStop) {
			// Degraded or fault-skipped baseline: stay untransformed.
			return zero, count, nil
		}
		// A genuinely uncostable zero state is a driver bug: fail.
		return nil, count, zerr
	}
	if err != nil {
		return nil, count, err
	}
	if bestIdx == 1 {
		return all, count, nil
	}
	return zero, count, nil
}

// searchIterative performs iterative improvement (§3.2): from a random
// initial state, repeatedly move to a cheaper neighbour (one object
// changed) until a local minimum; restart with a different initial state,
// bounded by iterativeRestarts and IterativeMaxStates.
//
// A neighbour is kept only if it beats the climb's current state, so each
// state's cut-off is min(bestCost, curCost): the best of the finished climbs
// or the climb's own cost, whichever is lower. curCost is +Inf until the
// climb's start state is costed.
func (o *Optimizer) searchIterative(q *qtree.Query, r transform.Rule, variants []int, cache *optimizer.CostCache, stats *Stats, tracker *budgetTracker) (state, int, error) {
	n := len(variants)
	rng := rand.New(rand.NewSource(o.Opts.Seed))
	seen := map[string]bool{}
	count := 0
	best := make(state, n)
	bestCost, curCost := math.Inf(1), math.Inf(1)

	eval := func(s state) (float64, bool, error) {
		key := stateKey(s)
		if seen[key] {
			return 0, false, nil
		}
		seen[key] = true
		if tracker.reserve(1) == 0 {
			return 0, false, errBudgetStop
		}
		cost, err := o.evalState(q, r, s, cache, math.Min(bestCost, curCost), stats, tracker)
		if errors.Is(err, errInfeasible) {
			return math.Inf(1), true, nil
		}
		if err != nil {
			return 0, false, err
		}
		count++
		return cost, true, nil
	}

	// Always include the untransformed state.
	zero := make(state, n)
	cost, _, err := eval(zero)
	if err != nil {
		if errors.Is(err, errBudgetStop) {
			return best, count, nil
		}
		return nil, count, err
	}
	best, bestCost = zero.clone(), cost

	for restart := 0; restart < iterativeRestarts && count < o.Opts.IterativeMaxStates; restart++ {
		cur := make(state, n)
		for i := range cur {
			cur[i] = rng.Intn(variants[i] + 1)
		}
		curCost = math.Inf(1)
		startCost, fresh, err := eval(cur)
		if err != nil {
			if errors.Is(err, errBudgetStop) {
				return best, count, nil
			}
			return nil, count, err
		}
		if !fresh {
			continue
		}
		curCost = startCost
		// Hill-climb to a local minimum.
		improved := true
		for improved && count < o.Opts.IterativeMaxStates {
			improved = false
			for i := 0; i < n && count < o.Opts.IterativeMaxStates; i++ {
				for v := 0; v <= variants[i]; v++ {
					if v == cur[i] {
						continue
					}
					nb := cur.clone()
					nb[i] = v
					nbCost, fresh, err := eval(nb)
					if err != nil {
						if errors.Is(err, errBudgetStop) {
							if curCost < bestCost {
								best = cur.clone()
							}
							return best, count, nil
						}
						return nil, count, err
					}
					if fresh && nbCost < curCost {
						cur, curCost = nb, nbCost
						improved = true
					}
				}
			}
		}
		if curCost < bestCost {
			best, bestCost = cur.clone(), curCost
		}
	}
	return best, count, nil
}

func stateKey(s state) string {
	b := make([]byte, len(s))
	for i, v := range s {
		b[i] = byte('0' + v)
	}
	return string(b)
}

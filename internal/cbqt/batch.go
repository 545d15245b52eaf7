package cbqt

import (
	"errors"
	"math"

	"repro/internal/optimizer"
	"repro/internal/qtree"
	"repro/internal/transform"
)

// The state-evaluation engine. Every transformation state is costed on its
// own copy of the query (§3.1), so the states of a search are independent:
// the Exhaustive, Linear and Two-Pass strategies each give their states to
// evalBatch in batches, and evalBatch costs a batch in enumeration order on
// the calling goroutine — the paper's one sequential search.
//
// The §3.4.1 cost cut-off applied to state i is the running minimum of the
// batch seed and the costs of the states completed before it, so a state is
// abandoned as soon as it costs more than the best of the batch so far. The
// winner is the minimum-cost state with ties broken by enumeration order
// (the state's mixed-radix key).
//
// Two batch semantics hold the budget and fault-isolation layer together:
// state caps trim a batch to its granted prefix of the enumeration before it
// is costed (budgetTracker.reserve, so Budget.MaxMemBytes is checked once
// per batch), and a batch is always finished before a panicking state's rule
// is quarantined, mergeBatch surfacing the first failure by enumeration
// order.

// stateEvalResult is one state's outcome from a batch.
type stateEvalResult struct {
	cost  float64
	err   error
	stats Stats
}

// evalBatch evaluates the given states in order and returns the per-state
// results; each state records its counters and trace into its result's
// private Stats, which mergeBatch folds in. seed is the cost cut-off the
// batch starts from.
//
// Every result slot starts as errBudgetStop and is overwritten when its
// state is actually evaluated: once the wall clock expires, the rest of the
// batch stays marked "skipped by budget", never silently costed at zero.
func (o *Optimizer) evalBatch(q *qtree.Query, r transform.Rule, states []state, cache *optimizer.CostCache, seed float64, tracker *budgetTracker) []stateEvalResult {
	results := make([]stateEvalResult, len(states))
	for i := range results {
		results[i].err = errBudgetStop
	}
	bound := seed
	for i := range states {
		if tracker.expired() {
			break
		}
		res := &results[i]
		res.cost, res.err = o.evalState(q, r, states[i], cache, bound, &res.stats, tracker)
		if res.err == nil && res.cost < bound {
			bound = res.cost
		}
	}
	return results
}

// mergeBatch folds the per-state results into stats in state enumeration
// order and selects the winner: the minimum-cost feasible state, ties
// broken by the smaller enumeration index. It returns the winner's index
// (-1 when no state was costed below +Inf), its cost, the number of states
// successfully costed, and the first (by enumeration order) error that is
// neither "state infeasible" nor "skipped by budget".
func mergeBatch(results []stateEvalResult, stats *Stats) (bestIdx int, bestCost float64, count int, err error) {
	bestIdx, bestCost = -1, math.Inf(1)
	for i := range results {
		res := &results[i]
		stats.BlocksOptimized += res.stats.BlocksOptimized
		stats.AnnotationHits += res.stats.AnnotationHits
		stats.CheckViolations += res.stats.CheckViolations
		stats.MemoSharedBlocks += res.stats.MemoSharedBlocks
		stats.MemoMaterializedBlocks += res.stats.MemoMaterializedBlocks
		stats.MemoStateBytes += res.stats.MemoStateBytes
		stats.Events = append(stats.Events, res.stats.Events...)
		stats.TransformErrors = append(stats.TransformErrors, res.stats.TransformErrors...)
		if res.err != nil {
			if !errors.Is(res.err, errInfeasible) && !errors.Is(res.err, errBudgetStop) && err == nil {
				err = res.err
			}
			continue
		}
		count++
		if res.cost < bestCost {
			bestCost, bestIdx = res.cost, i
		}
	}
	return bestIdx, bestCost, count, err
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

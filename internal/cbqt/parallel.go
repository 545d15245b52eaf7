package cbqt

import (
	"errors"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/optimizer"
	"repro/internal/qtree"
	"repro/internal/transform"
)

// The state-evaluation engine. Every transformation state is costed on its
// own copy of the query (§3.1), so the states of a search are independent:
// the Exhaustive, Linear and Two-Pass strategies each give their states to
// evalBatch in batches, and evalBatch costs a batch on a bounded set of
// workers. With one worker the batch runs in enumeration order on the
// calling goroutine — that is the sequential search, there is no other.
// Three pieces of shared state make any worker count safe and deterministic:
//
//   - the §3.4.2 annotation table is shared under its own lock
//     (optimizer.CostCache);
//   - the §3.4.1 cost cut-off propagates through a prefix bound
//     (prefixBound): the cut-off applied to state i is the minimum cost
//     among the *already-completed states that precede i in enumeration
//     order* (plus the batch seed). One worker has completed the whole
//     prefix before it claims state i, so its bound is the running minimum
//     of a sequential search. More workers may miss a completion, so their
//     bound is never tighter — they fully cost a superset of the states one
//     worker costs, and pruning can never hide the true winner. The surplus
//     fully-costed states all cost more than the one-worker bound at their
//     position, which is exactly the run-dependent split obsv.Normalize
//     collapses, making normalized search traces byte-identical at every
//     worker count;
//   - per-worker Stats counters and trace buffers are merged in state
//     enumeration order, and the winner is the minimum-cost state with
//     ties broken by enumeration order (the state's mixed-radix key),
//     never by completion order — so the chosen state, its cost and the
//     final plan are bit-for-bit identical at every parallelism level.
//
// The budget and fault-isolation layer preserves that determinism: state
// caps trim a batch to its granted prefix of the enumeration before
// dispatch (budgetTracker.reserve), and a panicking state quarantines its
// rule identically at every worker count because a batch is always finished
// and mergeBatch surfaces the first failure by enumeration order, not the
// first in time. Each worker additionally recovers panics around every state
// it claims, so one bad rewrite can never wedge the pool.

// parallelism resolves Options.Parallelism to a concrete worker count.
func (o *Optimizer) parallelism() int {
	if p := o.Opts.Parallelism; p > 0 {
		return p
	}
	return runtime.GOMAXPROCS(0)
}

// prefixBound is the deterministic §3.4.1 cost cut-off of one batch.
// Completed state costs are recorded per enumeration index, and the bound
// applied to state i is min(seed, completed costs of states j < i) — never
// the cost of a later-enumerated state, however early it completed. That
// keeps every bound at or above the one-worker bound at the same position,
// so a wider run prunes a subset of what one worker prunes and
// obsv.Normalize can reconcile the difference exactly (see the comment
// above).
type prefixBound struct {
	seed  float64
	mu    sync.Mutex
	costs []float64 // +Inf until state j completes with a finite cost
}

func newPrefixBound(seed float64, n int) *prefixBound {
	b := &prefixBound{seed: seed, costs: make([]float64, n)}
	for i := range b.costs {
		b.costs[i] = math.Inf(1)
	}
	return b
}

// boundFor returns the cut-off for state i. Missing a concurrent completion
// only raises the bound, which weakens pruning but never admits a bound one
// worker would not have reached.
func (b *prefixBound) boundFor(i int) float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	m := b.seed
	for j := 0; j < i && j < len(b.costs); j++ {
		if b.costs[j] < m {
			m = b.costs[j]
		}
	}
	return m
}

// complete records state i's cost (+Inf for abandoned states is a no-op on
// every later minimum).
func (b *prefixBound) complete(i int, cost float64) {
	b.mu.Lock()
	if i >= 0 && i < len(b.costs) {
		b.costs[i] = cost
	}
	b.mu.Unlock()
}

// stateEvalResult is one state's outcome from a batch.
type stateEvalResult struct {
	cost  float64
	err   error
	stats Stats
}

// evalBatch evaluates the given states on up to Options.Parallelism workers
// and returns the per-state results in input order; one worker is the caller
// itself, with no goroutine started. Each worker records its counters and
// trace into the result slot's private Stats, so no two goroutines share a
// Stats value. seed is the cost cut-off the batch starts from; state i
// prunes against it and the completed costs of the states before it in
// enumeration order only (prefixBound).
//
// Every result slot starts as errBudgetStop and is overwritten when its
// state is actually evaluated: a worker that stops claiming states (wall
// clock expired) leaves the rest of the batch marked "skipped by budget",
// never silently costed at zero. A panic escaping evalState's own recovery
// is caught at the worker too, so the pool always drains.
func (o *Optimizer) evalBatch(q *qtree.Query, r transform.Rule, states []state, cache *optimizer.CostCache, seed float64, tracker *budgetTracker) []stateEvalResult {
	results := make([]stateEvalResult, len(states))
	for i := range results {
		results[i].err = errBudgetStop
	}
	bound := newPrefixBound(seed, len(states))
	par := o.parallelism()
	if par > len(states) {
		par = len(states)
	}
	var next atomic.Int64
	worker := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(states) {
				return
			}
			func() {
				res := &results[i]
				defer func() {
					if p := recover(); p != nil {
						res.err = &TransformError{Rule: r.Name(), State: stateKey(states[i]), Panic: p, Stack: stack()}
					}
				}()
				if tracker.expired() {
					return // res.err stays errBudgetStop
				}
				res.cost, res.err = o.evalState(q, r, states[i], cache, bound.boundFor(i), &res.stats, tracker)
				if res.err == nil {
					bound.complete(i, res.cost)
				}
			}()
		}
	}
	if par <= 1 {
		worker()
		return results
	}
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			worker()
		}()
	}
	wg.Wait()
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

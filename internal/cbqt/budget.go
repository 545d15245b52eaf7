package cbqt

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"repro/internal/optimizer"
	"repro/internal/qtree"
)

// stack captures the current goroutine stack for TransformError reports.
func stack() string { return string(debug.Stack()) }

// Budget bounds one query's cost-based transformation search (§3's "the
// optimizer must be bounded to be shippable"). A zero field disables that
// bound; the zero Budget is unlimited. Exhausting any bound degrades the
// search gracefully — the driver keeps the best fully-costed state found so
// far (falling back to the heuristic-only form) and records the reason in
// Stats.Degraded — it never fails the query.
type Budget struct {
	// Timeout is the wall-clock budget for the transformation search,
	// measured from the start of OptimizeContext. The final physical
	// optimization of the chosen form always runs, so a plan is returned
	// even at Timeout values too small to cost a single state.
	Timeout time.Duration
	// MaxStates caps transformation states costed across all rules.
	MaxStates int
	// MaxMemBytes caps the approximate bytes of the cost-annotation table,
	// one state's copy of the query tree and the private bytes of the
	// cheapest state's tree: the search costs one state at a time and keeps
	// only the cheapest state's copy, which the driver adopts.
	MaxMemBytes int64
}

// DegradeReason says why a search stopped early; empty means it ran to
// completion.
type DegradeReason string

// The degradation reasons, in the order they are documented in EXPLAIN
// output ("degraded: deadline" etc.).
const (
	DegradeNone     DegradeReason = ""
	DegradeDeadline DegradeReason = "deadline"
	DegradeStateCap DegradeReason = "state-cap"
	DegradeMemCap   DegradeReason = "mem-cap"
	DegradeCanceled DegradeReason = "canceled"
)

// TransformError is a transformation failure (usually a recovered panic)
// converted into data: the search quarantines the rule, keeps the query
// untransformed by it, and carries the error in Stats.TransformErrors.
type TransformError struct {
	// Rule is the transformation (or pseudo-site, e.g. "heuristics") that
	// failed.
	Rule string
	// State is the mixed-radix state being evaluated, when known.
	State string
	// Panic is the recovered panic value, nil for returned errors.
	Panic any
	// Err is the returned error, nil for panics.
	Err error
	// Stack is the goroutine stack captured at recovery time.
	Stack string
}

func (e *TransformError) Error() string {
	what := "error"
	detail := fmt.Sprintf("%v", e.Err)
	if e.Panic != nil {
		what = "panic"
		detail = fmt.Sprintf("%v", e.Panic)
	}
	if e.State != "" {
		return fmt.Sprintf("cbqt: %s in %s state (%s): %s", what, e.Rule, e.State, detail)
	}
	return fmt.Sprintf("cbqt: %s in %s: %s", what, e.Rule, detail)
}

func (e *TransformError) Unwrap() error { return e.Err }

// class is the failure class carried in trace events: "panic" for recovered
// panics, "check" for static-checker violations, "error" for other
// returned errors.
func (e *TransformError) class() string {
	if e.Panic != nil {
		return "panic"
	}
	if _, ok := IsCheckViolation(e.Err); ok {
		return checkEventReason
	}
	return "error"
}

// errBudgetStop tells a search loop to stop and return its best state so
// far. Never escapes the cbqt package.
var errBudgetStop = errors.New("cbqt: budget exhausted, stop search")

// budgetTracker enforces a Budget across one optimization. Every strategy
// asks it to admit each state just before costing it, so a capped search
// evaluates a prefix of the states it visits, in the order it visits them.
// The first bound to trip records the sticky degradation reason. It is
// owned by one optimization and not safe for concurrent use.
type budgetTracker struct {
	ctx           context.Context
	deadline      time.Time // zero = none
	maxStates     int64     // 0 = unlimited
	maxMem        int64     // 0 = unlimited
	perStateBytes int64     // approx bytes of one deep-copied query tree (maxMem > 0 only)
	cacheBytes    func() int64

	states int64 // states admitted so far

	reason DegradeReason
}

func newBudgetTracker(ctx context.Context, b Budget, q *qtree.Query, cache *optimizer.CostCache) *budgetTracker {
	if ctx == nil {
		ctx = context.Background()
	}
	t := &budgetTracker{
		ctx:        ctx,
		maxStates:  int64(b.MaxStates),
		maxMem:     b.MaxMemBytes,
		cacheBytes: func() int64 { return 0 },
	}
	if t.maxMem > 0 {
		t.perStateBytes = q.ApproxBytes()
	}
	if b.Timeout > 0 {
		//lint:allow nodeterm the wall-clock budget is the feature; capped searches stay deterministic because admit counts states in the order a search visits them
		t.deadline = time.Now().Add(b.Timeout)
	}
	if d, ok := ctx.Deadline(); ok && (t.deadline.IsZero() || d.Before(t.deadline)) {
		t.deadline = d
	}
	if cache != nil {
		t.cacheBytes = cache.ApproxBytes
	}
	return t
}

// trip records the first degradation reason; later trips keep the first.
func (t *budgetTracker) trip(r DegradeReason) {
	if t.reason == DegradeNone {
		t.reason = r
	}
}

// expired reports (and records) whether the wall-clock or cancellation
// bounds have tripped.
func (t *budgetTracker) expired() bool {
	select {
	case <-t.ctx.Done():
		t.trip(DegradeCanceled)
		return true
	default:
	}
	//lint:allow nodeterm the wall-clock budget is the feature; expiry degrades the search to its best state, recorded in Stats.Degraded
	if !t.deadline.IsZero() && time.Now().After(t.deadline) {
		t.trip(DegradeDeadline)
		return true
	}
	return false
}

// admit reports whether one more state may be costed, and counts it when
// it may: the wall clock and the context have not expired, the state cap
// is not reached, and the state's copy fits under the memory cap beside the
// annotation table and kept, the private bytes of the tree the search keeps
// for its cheapest state.
func (t *budgetTracker) admit(kept int64) bool {
	if t.expired() {
		return false
	}
	if t.maxStates > 0 && t.states >= t.maxStates {
		t.trip(DegradeStateCap)
		return false
	}
	if t.maxMem > 0 && t.cacheBytes()+t.perStateBytes+kept > t.maxMem {
		t.trip(DegradeMemCap)
		return false
	}
	t.states++
	return true
}

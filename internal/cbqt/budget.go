package cbqt

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"repro/internal/check"
	"repro/internal/optimizer"
	"repro/internal/qtree"
	"repro/internal/transform"
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
	// MaxMemBytes caps the approximate bytes held by per-state copies of the
	// query tree plus the cost-annotation table.
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

// budgetTracker enforces a Budget across one search. State-count and memory
// accounting go through reserve, which grants a batch's states in
// enumeration order before any of them is costed, so a capped search
// evaluates a prefix of the canonical enumeration. The first bound to trip
// records the sticky degradation reason. It is owned by one search and not
// safe for concurrent use.
type budgetTracker struct {
	ctx           context.Context
	deadline      time.Time // zero = none
	maxStates     int64     // 0 = unlimited
	maxMem        int64     // 0 = unlimited
	perStateBytes int64     // approx bytes of one deep-copied query tree
	cacheBytes    func() int64

	states int64 // states granted so far

	// preSummary is the contract summary of the query a rule search starts
	// from (Options.Check only). o.search writes it before costing any
	// state; evalState only reads it.
	preSummary *check.Summary
	// baseSnap fingerprints the same query's tree (Options.Check only):
	// every evaluated state re-verifies it to prove no transformation
	// mutated the blocks its copy-on-write clone shares with the base.
	// Written with preSummary, never re-written mid-rule.
	baseSnap *check.TreeSnapshot
	// objs is the object set the current rule's Find returned on the base.
	// o.search writes it before costing any state; every state applies its
	// variants through these handles and none writes them.
	objs []transform.Object
	// baseFixpoint records that the query the search starts from is at a
	// fixpoint of the heuristic rules, so a state's heuristic re-pass may
	// skip the blocks it shares with it. The driver writes it between rule
	// searches only: set when the heuristic phase or a winner's re-pass
	// converges, cleared when a RuleHeuristic-mode rule changes the query.
	baseFixpoint bool

	reason DegradeReason
}

func newBudgetTracker(ctx context.Context, b Budget, q *qtree.Query, cache *optimizer.CostCache) *budgetTracker {
	if ctx == nil {
		ctx = context.Background()
	}
	t := &budgetTracker{
		ctx:           ctx,
		maxStates:     int64(b.MaxStates),
		maxMem:        b.MaxMemBytes,
		perStateBytes: q.ApproxBytes(),
		cacheBytes:    func() int64 { return 0 },
	}
	if b.Timeout > 0 {
		//lint:allow nodeterm the wall-clock budget is the feature; capped searches stay deterministic because reserve grants states in enumeration order
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

// reserve grants permission to cost up to n more states and returns how
// many were granted (0..n). The grant depends only on the totals reserved
// so far, so a batch trimmed to its granted prefix is the same on every run.
func (t *budgetTracker) reserve(n int) int {
	if n <= 0 {
		return 0
	}
	if t.expired() {
		return 0
	}
	granted := int64(n)
	used := t.states
	if t.maxStates > 0 && used+granted > t.maxStates {
		granted = t.maxStates - used
		if granted < 0 {
			granted = 0
		}
		t.trip(DegradeStateCap)
	}
	if t.maxMem > 0 && t.perStateBytes > 0 {
		avail := t.maxMem - t.cacheBytes() - used*t.perStateBytes
		if byMem := avail / t.perStateBytes; byMem < granted {
			if byMem < 0 {
				byMem = 0
			}
			granted = byMem
			t.trip(DegradeMemCap)
		}
	}
	t.states += granted
	return int(granted)
}

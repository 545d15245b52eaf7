package cbqt

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/check"
	"repro/internal/qtree"
)

// countCheckViolations folds static-checker findings into the per-state
// Stats and the metrics registry: the total under MetricCheckViolations
// and one counter per violation class.
func (o *Optimizer) countCheckViolations(stats *Stats, vs check.Violations) {
	stats.CheckViolations += len(vs)
	reg := o.Opts.Metrics
	reg.Counter(MetricCheckViolations).Add(int64(len(vs)))
	for _, v := range vs {
		reg.Counter(MetricCheckViolationsPrefix + string(v.Class)).Inc()
	}
}

// checkFault converts checker findings on a transformation state into the
// quarantine path: a *TransformError carrying the Violations, which the
// search surfaces in enumeration order.
func (o *Optimizer) checkFault(rule, st string, stats *Stats, vs check.Violations) *TransformError {
	o.countCheckViolations(stats, vs)
	return &TransformError{Rule: rule, State: st, Err: vs}
}

// checkedInput verifies the query handed to OptimizeContext before any
// transformation runs. A malformed input is the caller's bug, not a
// transformation's: it fails the optimization instead of quarantining.
func (o *Optimizer) checkedInput(q *qtree.Query, stats *Stats) error {
	if !o.Opts.Check {
		return nil
	}
	if vs := check.Query(q); len(vs) > 0 {
		o.countCheckViolations(stats, vs)
		return fmt.Errorf("cbqt: input query failed the static checker: %w", vs.Err())
	}
	return nil
}

// OptimizeDML plans a bound mutation statement. With Options.Check armed
// it adds a fifth seam to the four OptimizeContext runs on the read query:
// check.DML validates the statement shape (target arity and catalog types,
// VALUES-vs-read form, ROWID locating-query contract, parameter slot
// coverage) before any transformation runs, and again after the search —
// so a transformation that preserved the query-level invariants but broke
// the DML contract (say, rewrote the ROWID output into an ordinary int
// column) is rejected here instead of reaching the executor, which trusts
// the first locating-query output blindly as a row address. The VALUES
// form has no read query to optimize and returns a Result with no plan.
func (o *Optimizer) OptimizeDML(ctx context.Context, stmt *qtree.DMLStmt) (*Result, error) {
	if stmt == nil {
		return nil, fmt.Errorf("cbqt: nil DML statement")
	}
	if o.Opts.Check {
		if vs := check.DML(stmt); len(vs) > 0 {
			stats := Stats{StatesByRule: map[string]int{}}
			o.countCheckViolations(&stats, vs)
			return nil, fmt.Errorf("cbqt: input %s statement failed the static checker: %w", stmt.Kind, vs.Err())
		}
	}
	if stmt.Read == nil {
		return &Result{Stats: Stats{StatesByRule: map[string]int{}}}, nil
	}
	res, err := o.OptimizeContext(ctx, stmt.Read)
	if err != nil {
		return nil, err
	}
	// The read query adopted the winners' trees; keep the
	// statement pointed at the transformed tree the plan was compiled from.
	stmt.Read = res.Query
	if o.Opts.Check {
		if vs := check.DML(stmt); len(vs) > 0 {
			o.countCheckViolations(&res.Stats, vs)
			return nil, fmt.Errorf("cbqt: %s locating query violated the DML contract after transformation: %w", stmt.Kind, vs.Err())
		}
	}
	return res, nil
}

// IsCheckViolation reports whether err carries static-checker violations
// (possibly wrapped in a *TransformError), and returns them.
func IsCheckViolation(err error) (check.Violations, bool) {
	var vs check.Violations
	if errors.As(err, &vs) {
		return vs, true
	}
	return nil, false
}

// checkEventReason is the trace/quarantine reason for checker findings.
const checkEventReason = "check"

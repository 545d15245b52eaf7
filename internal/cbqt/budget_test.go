package cbqt

import (
	"context"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/faultinject"
	"repro/internal/obsv"
	"repro/internal/optimizer"
	"repro/internal/qtree"
	"repro/internal/testkit"
	"repro/internal/transform"
)

// disabledOptions turns every cost-based transformation off: the
// heuristics-only baseline that every fully degraded search must fall back
// to, and the semantic reference for fault-injection runs.
func disabledOptions() Options {
	opts := DefaultOptions()
	opts.RuleModes = map[string]RuleMode{}
	for _, r := range transform.CostBasedRules() {
		opts.RuleModes[r.Name()] = RuleOff
	}
	return opts
}

// TestDegradeDeadlineImmediate is the bottom rung of the degradation
// ladder: a deadline too short to cost even one state must still return a
// valid, executable, heuristic-only plan — immediately — and say why.
func TestDegradeDeadlineImmediate(t *testing.T) {
	db := testkit.NewDB(testkit.SmallSizes(), 7)
	baseRows, baseRes := runCBQT(t, db, table2SQL, disabledOptions())

	opts := DefaultOptions()
	opts.Budget.Timeout = time.Nanosecond
	rows, res := runCBQT(t, db, table2SQL, opts)

	if res.Stats.Degraded != DegradeDeadline {
		t.Fatalf("Degraded = %q, want %q", res.Stats.Degraded, DegradeDeadline)
	}
	if res.Stats.StatesEvaluated != 0 {
		t.Errorf("evaluated %d states under an expired deadline, want 0", res.Stats.StatesEvaluated)
	}
	if got, want := res.Query.SQL(), baseRes.Query.SQL(); got != want {
		t.Errorf("degraded query is not the heuristic-only form:\ngot:  %s\nwant: %s", got, want)
	}
	if !equalStrs(rows, baseRows) {
		t.Errorf("degraded plan changed results (%d rows vs %d)", len(rows), len(baseRows))
	}
}

// TestDegradeDeadlineUnderDelay exercises a deadline that expires during
// the search: every state evaluation is slowed past the budget, so no state
// can be fully costed and the heuristic-only plan must win.
func TestDegradeDeadlineUnderDelay(t *testing.T) {
	db := testkit.NewDB(testkit.SmallSizes(), 7)
	_, baseRes := runCBQT(t, db, table2SQL, disabledOptions())

	opts := DefaultOptions()
	opts.Budget.Timeout = time.Millisecond
	opts.Faults = faultinject.New(faultinject.Fault{
		Site: "state:*", Kind: faultinject.KindDelay, Delay: 2 * time.Millisecond,
	})
	_, res := runCBQT(t, db, table2SQL, opts)

	if res.Stats.Degraded != DegradeDeadline {
		t.Fatalf("Degraded = %q, want %q", res.Stats.Degraded, DegradeDeadline)
	}
	if got, want := res.Query.SQL(), baseRes.Query.SQL(); got != want {
		t.Errorf("deadline-degraded query is not the heuristic-only form:\ngot:  %s\nwant: %s", got, want)
	}
}

// TestDegradeStateCap pins the state-cap rung: the capped search evaluates
// at most the granted prefix of the canonical enumeration, says why it
// stopped, and its plan returns the uncapped rows.
func TestDegradeStateCap(t *testing.T) {
	db := testkit.NewDB(testkit.SmallSizes(), 7)
	baseRows, _ := runCBQT(t, db, table2SQL, disabledOptions())

	opts := DefaultOptions()
	opts.Budget.MaxStates = 3
	rows, res := runCBQT(t, db, table2SQL, opts)
	if res.Stats.Degraded != DegradeStateCap {
		t.Fatalf("Degraded = %q, want %q", res.Stats.Degraded, DegradeStateCap)
	}
	if res.Stats.StatesEvaluated > 3 {
		t.Errorf("evaluated %d states, cap is 3", res.Stats.StatesEvaluated)
	}
	if !equalStrs(rows, baseRows) {
		t.Errorf("capped plan changed results")
	}
}

// TestDegradeMemCap: a memory budget smaller than one deep copy of the
// query grants zero states, degrading to the heuristic-only plan.
func TestDegradeMemCap(t *testing.T) {
	db := testkit.NewDB(testkit.SmallSizes(), 7)
	_, baseRes := runCBQT(t, db, table2SQL, disabledOptions())

	opts := DefaultOptions()
	opts.Budget.MaxMemBytes = 1
	rows, res := runCBQT(t, db, table2SQL, opts)

	if res.Stats.Degraded != DegradeMemCap {
		t.Fatalf("Degraded = %q, want %q", res.Stats.Degraded, DegradeMemCap)
	}
	if got, want := res.Query.SQL(), baseRes.Query.SQL(); got != want {
		t.Errorf("mem-capped query is not the heuristic-only form:\ngot:  %s\nwant: %s", got, want)
	}
	if len(rows) == 0 {
		t.Error("mem-capped plan returned no rows")
	}
}

// TestMemCapHoldsOneState: the sequential search holds one state's copy at a
// time, so a cap of the final annotation table plus two tree copies costs
// every state of the Table 2 search, undegraded.
func TestMemCapHoldsOneState(t *testing.T) {
	db := testkit.NewDB(testkit.SmallSizes(), 7)
	opts := DefaultOptions()
	opts.Metrics = obsv.NewRegistry()
	_, full := runCBQT(t, db, table2SQL, opts)
	table := opts.Metrics.GaugeValue(optimizer.MetricCacheBytes)
	if full.Stats.StatesEvaluated != 16 || table == 0 {
		t.Fatalf("uncapped search costed %d states into a %d-byte table, want 16 and a table", full.Stats.StatesEvaluated, table)
	}

	opts = DefaultOptions()
	opts.Budget.MaxMemBytes = table + 2*qtree.MustBind(table2SQL, db.Catalog).ApproxBytes()
	_, res := runCBQT(t, db, table2SQL, opts)
	if res.Stats.Degraded != DegradeNone || res.Stats.StatesEvaluated != 16 {
		t.Fatalf("cap %d B: Degraded = %q after %d states, want none after 16",
			opts.Budget.MaxMemBytes, res.Stats.Degraded, res.Stats.StatesEvaluated)
	}
}

// TestDegradeCanceled: a cancelled context degrades the search like an
// expired deadline; the returned plan is still valid and executable.
func TestDegradeCanceled(t *testing.T) {
	db := testkit.NewDB(testkit.SmallSizes(), 7)
	baseRows, baseRes := runCBQT(t, db, table2SQL, disabledOptions())

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := DefaultOptions()
	q := qtree.MustBind(table2SQL, db.Catalog)
	o := &Optimizer{Cat: db.Catalog, Opts: opts}
	res, err := o.OptimizeContext(ctx, q)
	if err != nil {
		t.Fatalf("OptimizeContext under cancellation must degrade, not fail: %v", err)
	}
	if res.Stats.Degraded != DegradeCanceled {
		t.Fatalf("Degraded = %q, want %q", res.Stats.Degraded, DegradeCanceled)
	}
	if got, want := res.Query.SQL(), baseRes.Query.SQL(); got != want {
		t.Errorf("cancel-degraded query is not the heuristic-only form:\ngot:  %s\nwant: %s", got, want)
	}
	er, err := exec.Run(db, res.Plan)
	if err != nil {
		t.Fatalf("executing cancel-degraded plan: %v", err)
	}
	rows := make([]string, len(er.Rows))
	for i, r := range er.Rows {
		parts := make([]string, len(r))
		for j, d := range r {
			parts[j] = d.String()
		}
		rows[i] = strings.Join(parts, "|")
	}
	sort.Strings(rows)
	if !equalStrs(rows, baseRows) {
		t.Errorf("cancel-degraded plan changed results")
	}
}

// TestNoBudgetNoDegrade: the zero Budget must leave the search untouched.
func TestNoBudgetNoDegrade(t *testing.T) {
	db := testkit.NewDB(testkit.SmallSizes(), 7)
	opts := DefaultOptions()
	_, res := runCBQT(t, db, table2SQL, opts)
	if res.Stats.Degraded != DegradeNone {
		t.Errorf("Degraded = %q with a zero budget, want none", res.Stats.Degraded)
	}
	if res.Stats.StatesEvaluated == 0 {
		t.Error("zero budget evaluated no states")
	}
}

// TestMemCapChargesKeptWinner: the memory cap admits a state only when the
// annotation table, one state's copy and the private bytes of the tree the
// search keeps for its cheapest state fit together.
func TestMemCapChargesKeptWinner(t *testing.T) {
	db := testkit.NewDB(testkit.SmallSizes(), 7)
	q := qtree.MustBind(table2SQL, db.Catalog)
	const kept = 100
	tr := newBudgetTracker(context.Background(), Budget{MaxMemBytes: q.ApproxBytes() + kept}, q, nil)
	if !tr.admit(kept) {
		t.Fatalf("a state's copy beside a %d-byte kept tree does not fit a cap of exactly their sum", kept)
	}
	if tr.admit(kept+1) || tr.reason != DegradeMemCap {
		t.Errorf("a kept tree one byte larger was admitted (reason %q)", tr.reason)
	}
}

package optimizer

import (
	"errors"
	"testing"

	"repro/internal/qtree"
	"repro/internal/testkit"
)

// TestLimitScalesWorkAboveBlockingBase: a Limit over a Filter over a Sort
// must complete the sort, but charges the filter only for the sorted rows
// it reads before the limit has its N. So whenever N is below the filter's
// output the limit costs less than its child, and more for larger N.
func TestLimitScalesWorkAboveBlockingBase(t *testing.T) {
	s := &Sort{}
	s.cost = Cost{Total: 9000, Rows: 2000}
	f := &Filter{Child: s}
	f.cost = Cost{Total: 90000, Rows: 150} // an expensive predicate per sorted row
	prev := 0.0
	for n := int64(1); n < 150; n++ {
		c := limitCost(f, n)
		if c.Total >= f.cost.Total {
			t.Fatalf("limit %d over %v rows costs %.1f, its child %.1f", n, f.cost.Rows, c.Total, f.cost.Total)
		}
		if c.Total < s.cost.Total {
			t.Fatalf("limit %d costs %.1f, less than the sort below it (%.1f)", n, c.Total, s.cost.Total)
		}
		if c.Total <= prev {
			t.Fatalf("limit %d costs %.1f, limit %d cost %.1f", n, c.Total, n-1, prev)
		}
		prev = c.Total
	}
	if c := limitCost(f, 150); c.Total != f.cost.Total+150*projectRowCost {
		t.Fatalf("a limit that reads every row costs %.1f, want the child's %.1f plus its rows", c.Total, f.cost.Total)
	}
}

// pullUpState is the predicate pull-up state (§2.2.6) of the ROWNUM query
// of analytic_cached at keyword0 and balance > 0: SLOW_MATCH runs above the
// sort, where ROWNUM <= 20 stops it after a few rows.
const pullUpState = `SELECT v.acct_id, v.balance FROM
	(SELECT a.acct_id acct_id, a.balance balance, a.create_date create_date, a.notes pu FROM accounts a
	 WHERE a.balance > 0 ORDER BY a.create_date) v
	WHERE SLOW_MATCH(v.pu, 'keyword0') AND rownum <= 20`

// TestCutoffWaitsForLimit: with the cut-off between the pull-up state's
// limit-scaled cost and the unscaled cost of the filter under its limit,
// planning must return the plan. A cut-off checked inside the limited block
// abandons the state on a partial cost that the limit scales down later.
func TestCutoffWaitsForLimit(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the medium database")
	}
	db := testkit.NewDB(testkit.MediumSizes(), 1)
	plan := func(cutoff float64) (*Plan, error) {
		q, err := qtree.BindSQL(pullUpState, db.Catalog)
		if err != nil {
			t.Fatal(err)
		}
		p := New(db.Catalog)
		p.CostOnly = true
		p.Cutoff = cutoff
		return p.Optimize(q)
	}
	full, err := plan(0)
	if err != nil {
		t.Fatal(err)
	}
	lim, ok := full.Root.(*Limit)
	if !ok {
		t.Fatalf("plan root is %s, want a Limit", full.Root.Label())
	}
	scaled, unscaled := lim.Cost().Total, lim.Child.Cost().Total
	t.Logf("pull-up state: %.1f with its limit costed, %.1f without", scaled, unscaled)
	if scaled >= unscaled/2 {
		t.Fatalf("the limit saves too little to test the cut-off: %.1f of %.1f", scaled, unscaled)
	}
	got, err := plan((scaled + unscaled) / 2)
	if err != nil {
		t.Fatalf("cut-off %.1f: %v", (scaled+unscaled)/2, err)
	}
	if got.Cost.Total != scaled {
		t.Fatalf("planned under the cut-off: %.1f, without: %.1f", got.Cost.Total, scaled)
	}
	if _, err := plan(scaled * 0.99); !errors.Is(err, ErrCutoff) {
		t.Fatalf("cut-off below the limited cost: err %v, want ErrCutoff", err)
	}
}

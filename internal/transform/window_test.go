package transform

import (
	"testing"

	"repro/internal/qtree"
	"repro/internal/testkit"
)

// q7SQL is the paper's Q7: an inline view computing a running average
// balance per account, with outer filters on the PARTITION BY column
// (acct_id) and on the ORDER BY column (time).
const q7SQL = `
SELECT v.acct_id, v.time, v.ravg FROM
(SELECT a.acct_id acct_id, a.time time,
        AVG(a.balance) OVER (PARTITION BY a.acct_id ORDER BY a.time
          RANGE BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) ravg
 FROM accounts a) v
WHERE v.acct_id = 'ORCL' AND v.time <= 12`

func TestQ7PartitionByPushdown(t *testing.T) {
	db := testkit.NewDB(testkit.SmallSizes(), 3)
	q := qtree.MustBind(q7SQL, db.Catalog)
	want := results(t, db, q)

	q2 := qtree.MustBind(q7SQL, db.Catalog)
	ch, err := applyOnce(q2, &PredicateMoveAround{})
	if err != nil || !ch {
		t.Fatalf("move around: %v %v", ch, err)
	}
	// The acct_id predicate (PARTITION BY column) must be pushed into the
	// view (Q8); the time predicate (ORDER BY column) must stay outside —
	// pushing it would change the running-average frames.
	v := q2.Root.From[0].View
	pushedAcct := false
	for _, e := range v.Where {
		if refersToName(e, "ACCT_ID") {
			pushedAcct = true
		}
		if refersToName(e, "TIME") {
			t.Errorf("time predicate must not be pushed below the window: %s", q2.SQL())
		}
	}
	if !pushedAcct {
		t.Fatalf("acct_id predicate should be pushed into the view (Q8): %s", q2.SQL())
	}
	timeOutside := false
	for _, e := range q2.Root.Where {
		if refersToName(e, "TIME") {
			timeOutside = true
		}
	}
	if !timeOutside {
		t.Errorf("time predicate should remain in the outer block: %s", q2.SQL())
	}

	got := results(t, db, q2)
	if !sameRows(want, got) {
		t.Errorf("Q7 -> Q8 changed semantics\nwant %v\ngot  %v", want, got)
	}
}

// refersToName reports whether the expression references a column with the
// given display name.
func refersToName(e qtree.Expr, name string) bool {
	found := false
	qtree.WalkExpr(e, func(x qtree.Expr) bool {
		if c, ok := x.(*qtree.Col); ok && c.Name == name {
			found = true
		}
		return !found
	})
	return found
}

func TestWindowViewNotMergedOrUnnested(t *testing.T) {
	db := testkit.NewDB(testkit.SmallSizes(), 3)
	q := qtree.MustBind(q7SQL, db.Catalog)
	if ch, err := applyOnce(q, &SPJViewMerge{}); err != nil || ch {
		t.Errorf("window view must not merge as SPJ: %v %v", ch, err)
	}
	r := &ViewStrategy{}
	if n := len(r.Find(q)); n != 0 {
		t.Errorf("window view is not a merge/JPPD object, found %d", n)
	}
}

func TestWindowViewJPPDOnPartitionColumnOnly(t *testing.T) {
	db := testkit.NewDB(testkit.SmallSizes(), 3)
	// A window view joined on its PARTITION BY output: pushable; the JPPD
	// path uses the same legality rule via jppdAccepts.
	src := `
SELECT e.employee_name, v.rs FROM employees e,
(SELECT s.dept_id dd, SUM(s.amount) OVER (PARTITION BY s.dept_id) rs FROM sales s) v
WHERE e.dept_id = v.dd AND e.emp_id < 20`
	q := qtree.MustBind(src, db.Catalog)
	want := results(t, db, q)
	q2 := qtree.MustBind(src, db.Catalog)
	ch, err := applyOnce(q2, &PredicateMoveAround{})
	if err != nil {
		t.Fatal(err)
	}
	_ = ch // the join predicate is not single-view, so move-around skips it
	got := results(t, db, q2)
	if !sameRows(want, got) {
		t.Errorf("window view query changed: %v vs %v", want, got)
	}
	// Now a pushable constant filter on the partition column.
	src2 := `
SELECT v.dd, v.rs FROM
(SELECT s.dept_id dd, SUM(s.amount) OVER (PARTITION BY s.dept_id) rs FROM sales s) v
WHERE v.dd = 7`
	assertEquivalent(t, db, src2, heuristic("filter predicate move around"))
	// And a non-pushable filter on the window output itself.
	src3 := `
SELECT v.dd, v.rs FROM
(SELECT s.dept_id dd, SUM(s.amount) OVER (PARTITION BY s.dept_id) rs FROM sales s) v
WHERE v.rs > 100`
	q3 := qtree.MustBind(src3, db.Catalog)
	before := len(q3.Root.Where)
	if _, err := applyOnce(q3, &PredicateMoveAround{}); err != nil {
		t.Fatal(err)
	}
	if len(q3.Root.Where) != before {
		t.Errorf("window-output predicate must not be pushed: %s", q3.SQL())
	}
}

package exec

import (
	"strings"
	"testing"

	"repro/internal/optimizer"
	"repro/internal/qtree"
	"repro/internal/testkit"
)

func TestScalarSubqueryMultiRowErrors(t *testing.T) {
	db := testkit.TinyDB()
	q, err := qtree.BindSQL(`
SELECT e.name FROM emp e WHERE e.salary > (SELECT e2.salary FROM emp e2 WHERE e2.dept_id = 10)`, db.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	p := optimizer.New(db.Catalog)
	plan, err := p.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(db, plan); err == nil || !strings.Contains(err.Error(), "more than one row") {
		t.Errorf("expected multi-row scalar subquery error, got %v", err)
	}
}

func TestScalarSubqueryZeroRowsIsNull(t *testing.T) {
	db := testkit.TinyDB()
	got := runSQL(t, db, `
SELECT e.name FROM emp e WHERE e.salary > (SELECT e2.salary FROM emp e2 WHERE e2.dept_id = 999)`)
	expect(t, got) // NULL comparison keeps nothing
}

func TestCorrelatedExistsInsideView(t *testing.T) {
	db := testkit.TinyDB()
	got := runSQL(t, db, `
SELECT v.n FROM
(SELECT d.name n, d.dept_id id FROM dept d) v
WHERE EXISTS (SELECT 1 FROM emp e WHERE e.dept_id = v.id AND e.salary >= 250)`)
	expect(t, got, "'ops'", "'hr'")
}

func TestNestedCorrelationTwoLevels(t *testing.T) {
	db := testkit.TinyDB()
	// The inner-most subquery references the outermost block (e), two
	// levels up; the TIS cache key must include it.
	got := runSQL(t, db, `
SELECT e.name FROM emp e WHERE EXISTS
(SELECT 1 FROM dept d WHERE d.dept_id = e.dept_id AND EXISTS
 (SELECT 1 FROM proj p WHERE p.dept_id = d.dept_id AND p.budget > e.salary))`)
	// dept 10: budgets 1000, 500 -> ann(100) yes, bob(200) yes;
	// dept 20: budget 800 -> cal(300) yes, dee(50) yes; dept 30: none.
	expect(t, got, "'ann'", "'bob'", "'cal'", "'dee'")
}

func TestQuantifiedOverUncorrelatedUsesStats(t *testing.T) {
	db := testkit.TinyDB()
	// > ALL over an uncorrelated subquery: the subquery runs once and every
	// outer row folds its materialized rows.
	got := runSQL(t, db, `
SELECT e.name FROM emp e WHERE e.salary > ALL (SELECT p.budget / 10 FROM proj p)`)
	// budgets/10: 100, 50, 80, 30 -> max 100; salaries > 100.
	expect(t, got, "'bob'", "'cal'", "'eli'", "'fay'")
	// < ANY with a NULL in the set: values below max qualify; max itself
	// gets UNKNOWN (never TRUE against smaller values) but null handling
	// must not leak rows.
	got = runSQL(t, db, `
SELECT e.name FROM emp e WHERE e.emp_id < ANY (SELECT d.loc_id + 3 FROM dept d)`)
	// loc_id+3: 4, 5, 4, NULL -> max 5: emp_id < 5.
	expect(t, got, "'ann'", "'bob'", "'cal'", "'dee'")
}

func TestEmptyTableBehaviour(t *testing.T) {
	db := testkit.TinyDB()
	// PROJ filtered to nothing exercises empty inputs through joins,
	// aggregation, exists.
	got := runSQL(t, db, `
SELECT COUNT(*), SUM(p.budget) FROM proj p WHERE p.budget > 99999`)
	expect(t, got, "0|NULL")
	got = runSQL(t, db, `
SELECT e.name FROM emp e, proj p WHERE p.budget > 99999 AND p.dept_id = e.dept_id`)
	expect(t, got)
	got = runSQL(t, db, `
SELECT d.name FROM dept d WHERE d.dept_id NOT IN (SELECT p.dept_id FROM proj p WHERE p.budget > 99999)`)
	expect(t, got, "'eng'", "'ops'", "'hr'", "'empty'") // NOT IN over empty set keeps all
}

func TestLeftOuterJoinWithFilterOnRight(t *testing.T) {
	db := testkit.TinyDB()
	// The ON condition filters the right side; unmatched left rows pad
	// with NULLs rather than disappearing.
	got := runSQL(t, db, `
SELECT d.name, e.name FROM dept d LEFT OUTER JOIN emp e
ON d.dept_id = e.dept_id AND e.salary > 200`)
	expect(t, got,
		"'eng'|NULL",
		"'ops'|'cal'",
		"'hr'|'eli'",
		"'empty'|NULL")
}

func TestDuplicateRowsThroughSemijoinCache(t *testing.T) {
	db := testkit.TinyDB()
	// Two employees share dept 10 and dept 20: the semijoin verdict cache
	// must return per-left-row results, preserving duplicates.
	got := runSQL(t, db, `
SELECT e.dept_id FROM emp e WHERE EXISTS
(SELECT 1 FROM proj p WHERE p.dept_id = e.dept_id)`)
	expect(t, got, "10", "10", "20", "20")
}

func TestThreeWayUnionAllThroughView(t *testing.T) {
	db := testkit.TinyDB()
	got := runSQL(t, db, `
SELECT v.k, COUNT(*) FROM
(SELECT 'e' k FROM emp e UNION ALL SELECT 'd' k FROM dept d UNION ALL SELECT 'p' k FROM proj p) v
GROUP BY v.k`)
	expect(t, got, "'e'|6", "'d'|4", "'p'|4")
}

func TestProjectionExpressionErrorsPropagateFromView(t *testing.T) {
	db := testkit.TinyDB()
	q, err := qtree.BindSQL(`
SELECT v.x FROM (SELECT e.salary / (e.emp_id - 3) x FROM emp e) v`, db.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	p := optimizer.New(db.Catalog)
	plan, err := p.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(db, plan); err == nil {
		t.Error("division by zero inside a view should propagate")
	}
}

func TestRightOuterJoinNormalizes(t *testing.T) {
	db := testkit.TinyDB()
	// emp RIGHT JOIN dept == dept LEFT JOIN emp: every department appears.
	got := runSQL(t, db, `
SELECT d.name, e.name FROM emp e RIGHT OUTER JOIN dept d ON e.dept_id = d.dept_id`)
	expect(t, got,
		"'eng'|'ann'", "'eng'|'bob'",
		"'ops'|'cal'", "'ops'|'dee'",
		"'hr'|'eli'",
		"'empty'|NULL")
	// Equivalence with the explicit LEFT form.
	left := runSQL(t, db, `
SELECT d.name, e.name FROM dept d LEFT OUTER JOIN emp e ON e.dept_id = d.dept_id`)
	if len(left) != len(got) {
		t.Errorf("RIGHT JOIN normalization mismatch: %v vs %v", got, left)
	}
}

func TestFullOuterJoin(t *testing.T) {
	db := testkit.TinyDB()
	// dept 40 has no employees; fay has no department: both must survive.
	got := runSQL(t, db, `
SELECT d.name, e.name FROM dept d FULL OUTER JOIN emp e ON d.dept_id = e.dept_id`)
	expect(t, got,
		"'eng'|'ann'", "'eng'|'bob'",
		"'ops'|'cal'", "'ops'|'dee'",
		"'hr'|'eli'",
		"'empty'|NULL",
		"NULL|'fay'")
}

func TestFullOuterJoinWithResidualCondition(t *testing.T) {
	db := testkit.TinyDB()
	got := runSQL(t, db, `
SELECT d.name, e.name FROM dept d FULL OUTER JOIN emp e
ON d.dept_id = e.dept_id AND e.salary > 200`)
	expect(t, got,
		"'eng'|NULL",   // ann(100), bob(200) filtered by the ON clause
		"'ops'|'cal'",  // 300 qualifies
		"'hr'|'eli'",   // 250 qualifies
		"'empty'|NULL", // no employees at all
		"NULL|'ann'",   // unmatched right rows surface
		"NULL|'bob'",
		"NULL|'dee'",
		"NULL|'fay'")
}

func TestFullOuterJoinAggregates(t *testing.T) {
	db := testkit.TinyDB()
	got := runSQL(t, db, `
SELECT COUNT(*), COUNT(d.dept_id), COUNT(e.emp_id)
FROM dept d FULL OUTER JOIN emp e ON d.dept_id = e.dept_id`)
	expect(t, got, "7|6|6")
}

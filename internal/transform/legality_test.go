package transform

import (
	"testing"

	"repro/internal/qtree"
	"repro/internal/testkit"
)

// These tests pin down when transformations must NOT apply: wrong
// transformations silently change semantics, so refusals matter as much as
// applications.

func findRule(name string) Rule {
	for _, r := range CostBasedRules() {
		if r.Name() == name {
			return r
		}
	}
	return nil
}

func TestUnnestRefusesNonParentCorrelation(t *testing.T) {
	db := testkit.TinyDB()
	// The innermost subquery is correlated to the outermost block (e),
	// skipping its parent (the d-block): the paper excludes such
	// subqueries from unnesting entirely.
	src := `
SELECT e.name FROM emp e WHERE EXISTS
(SELECT 1 FROM dept d WHERE d.dept_id = e.dept_id AND EXISTS
 (SELECT 1 FROM proj p, dept d2 WHERE p.dept_id = d2.dept_id AND p.budget > e.salary))`
	q := qtree.MustBind(src, db.Catalog)
	// The merge rule must leave the inner two-table subquery alone, and
	// the cost-based rule must not list it as an object. (The outer EXISTS
	// itself is single-table at its level and contains a subquery, so it
	// is not a merge candidate either.)
	if _, err := applyOnce(q, &UnnestMerge{}); err != nil {
		t.Fatal(err)
	}
	r := &UnnestSubquery{}
	if n := len(r.Find(q)); n != 0 {
		t.Errorf("non-parent correlated subquery must not be unnestable, found %d objects", n)
	}
}

func TestUnnestRefusesCountAggregate(t *testing.T) {
	db := testkit.TinyDB()
	// COUNT over an empty group yields 0 under TIS but no row after
	// unnesting; the rule must refuse.
	src := `
SELECT e.name FROM emp e
WHERE e.salary > (SELECT COUNT(*) FROM proj p, dept d
                  WHERE p.dept_id = d.dept_id AND d.dept_id = e.dept_id)`
	q := qtree.MustBind(src, db.Catalog)
	if n := len((&UnnestSubquery{}).Find(q)); n != 0 {
		t.Errorf("COUNT subquery must not unnest (empty-group semantics), found %d", n)
	}
}

func TestUnnestRefusesMultiItemNullableNotIn(t *testing.T) {
	db := testkit.TinyDB()
	// Multi-item NOT IN with nullable columns cannot be unnested (§2.1.1).
	src := `
SELECT e.name FROM emp e WHERE (e.dept_id, e.mgr_id) NOT IN
(SELECT p.dept_id, p.proj_id FROM proj p, dept d WHERE p.dept_id = d.dept_id)`
	q := qtree.MustBind(src, db.Catalog)
	if n := len((&UnnestSubquery{}).Find(q)); n != 0 {
		t.Errorf("nullable multi-item NOT IN must not unnest, found %d", n)
	}
}

func TestViewMergeRefusals(t *testing.T) {
	db := testkit.TinyDB()
	vs := &ViewStrategy{}
	cases := []struct {
		name string
		src  string
	}{
		{"outer is grouped", `
SELECT COUNT(*) FROM emp e,
(SELECT e2.dept_id dd, AVG(e2.salary) a FROM emp e2 GROUP BY e2.dept_id) v
WHERE e.dept_id = v.dd GROUP BY e.mgr_id`},
		{"outer has limit", `
SELECT e.name FROM emp e,
(SELECT e2.dept_id dd, AVG(e2.salary) a FROM emp e2 GROUP BY e2.dept_id) v
WHERE e.dept_id = v.dd AND rownum <= 3`},
		{"view has order by", `
SELECT e.name FROM emp e,
(SELECT e2.dept_id dd FROM emp e2 GROUP BY e2.dept_id ORDER BY e2.dept_id) v
WHERE e.dept_id = v.dd AND e.salary > 1000000`},
	}
	for _, c := range cases {
		q := qtree.MustBind(c.src, db.Catalog)
		// Merging must be refused; JPPD may still be offered for some
		// (that is fine — check merge specifically).
		for _, o := range vs.Find(q) {
			if o.forms&formFirst != 0 {
				t.Errorf("%s: merge should be illegal\nsql: %s", c.name, c.src)
			}
		}
	}
}

func TestJPPDRefusesWithoutJoinPredicate(t *testing.T) {
	db := testkit.TinyDB()
	// Cross join with the view: nothing to push.
	src := `
SELECT e.name, v.a FROM emp e,
(SELECT AVG(p.budget) a, p.dept_id dd FROM proj p GROUP BY p.dept_id) v
WHERE e.salary > 100`
	q := qtree.MustBind(src, db.Catalog)
	objs := (&ViewStrategy{}).Find(q)
	for _, o := range objs {
		if o.forms&formSecond != 0 {
			t.Errorf("JPPD should be illegal without a pushable join predicate")
		}
	}
}

func TestJPPDRefusesAggregateOutputJoin(t *testing.T) {
	db := testkit.TinyDB()
	// The join predicate targets the aggregate output: cannot be pushed
	// below the GROUP BY.
	src := `
SELECT e.name FROM emp e,
(SELECT AVG(p.budget) a, p.dept_id dd FROM proj p GROUP BY p.dept_id) v
WHERE e.salary = v.a`
	q := qtree.MustBind(src, db.Catalog)
	objs := (&ViewStrategy{}).Find(q)
	for _, o := range objs {
		if o.forms&formSecond != 0 {
			t.Errorf("JPPD on aggregate output must be refused")
		}
	}
}

func TestOrExpansionRefusals(t *testing.T) {
	db := testkit.TinyDB()
	r := findRule("disjunction into UNION ALL")
	bad := []string{
		// DISTINCT: branch-local LNNVL does not preserve global dedup.
		`SELECT DISTINCT e.dept_id FROM emp e WHERE e.dept_id = 10 OR e.salary > 200`,
		// Grouped block.
		`SELECT COUNT(*) FROM emp e WHERE e.dept_id = 10 OR e.salary > 200`,
		// Row limit.
		`SELECT e.name FROM emp e WHERE (e.dept_id = 10 OR e.salary > 200) AND rownum <= 2`,
		// Order by.
		`SELECT e.name FROM emp e WHERE e.dept_id = 10 OR e.salary > 200 ORDER BY e.name`,
		// Subquery inside the disjunction.
		`SELECT e.name FROM emp e WHERE e.dept_id = 10 OR EXISTS (SELECT 1 FROM proj p WHERE p.dept_id = e.dept_id)`,
	}
	for _, src := range bad {
		q := qtree.MustBind(src, db.Catalog)
		if n := len(r.Find(q)); n != 0 {
			t.Errorf("OR expansion should refuse: %s", src)
		}
	}
}

func TestPullupRefusals(t *testing.T) {
	db := testkit.TinyDB()
	r := findRule("predicate pullup")
	bad := []string{
		// No outer rownum.
		`SELECT v.name FROM
		 (SELECT e.name name FROM emp e WHERE SLOW_MATCH(e.name, 'a') ORDER BY e.name) v`,
		// No blocking operator in the view.
		`SELECT v.name FROM
		 (SELECT e.name name FROM emp e WHERE SLOW_MATCH(e.name, 'a')) v
		 WHERE rownum <= 2`,
		// Cheap predicate only.
		`SELECT v.name FROM
		 (SELECT e.name name FROM emp e WHERE e.salary > 10 ORDER BY e.name) v
		 WHERE rownum <= 2`,
	}
	for _, src := range bad {
		q := qtree.MustBind(src, db.Catalog)
		if n := len(r.Find(q)); n != 0 {
			t.Errorf("pullup should refuse: %s", src)
		}
	}
}

func TestFactorizationRefusals(t *testing.T) {
	db := testkit.TinyDB()
	r := findRule("join factorization")
	bad := []string{
		// No common table.
		`SELECT e.name FROM emp e WHERE e.salary > 100
		 UNION ALL SELECT p.pname FROM proj p`,
		// Common table but its select reference is an expression, not a
		// plain column.
		`SELECT d.dept_id + 1, e.name FROM emp e, dept d WHERE e.dept_id = d.dept_id
		 UNION ALL SELECT d.dept_id + 1, p.pname FROM proj p, dept d WHERE p.dept_id = d.dept_id`,
		// Common table selected at different positions.
		`SELECT d.name, e.name FROM emp e, dept d WHERE e.dept_id = d.dept_id
		 UNION ALL SELECT p.pname, d.name FROM proj p, dept d WHERE p.dept_id = d.dept_id`,
		// Common table's first column (ordinal 0) selected at different
		// positions: the select signatures used to compare equal because a
		// missing position read as ordinal 0.
		`SELECT d.dept_id, e.name FROM emp e, dept d WHERE e.dept_id = d.dept_id
		 UNION ALL SELECT p.pname, d.dept_id FROM proj p, dept d WHERE p.dept_id = d.dept_id`,
		// An outer join condition on the common table: neither form may
		// take the table out from under it (the strict form used to leave
		// the condition dangling).
		`SELECT d.name, e.name FROM dept d, emp e LEFT OUTER JOIN proj p ON (p.dept_id = d.dept_id)
		 WHERE e.dept_id = d.dept_id
		 UNION ALL SELECT d.name, p.pname FROM dept d, proj p WHERE p.dept_id = d.dept_id`,
	}
	for _, src := range bad {
		q := qtree.MustBind(src, db.Catalog)
		if n := len(r.Find(q)); n != 0 {
			t.Errorf("factorization should refuse: %s", src)
		}
	}
}

func TestGroupByPlacementRefusals(t *testing.T) {
	db := testkit.TinyDB()
	r := findRule("group-by placement")
	bad := []string{
		// Distinct aggregate.
		`SELECT d.name, COUNT(DISTINCT p.budget) FROM dept d, proj p
		 WHERE d.dept_id = p.dept_id GROUP BY d.name`,
		// Aggregate arguments from two different tables.
		`SELECT d.name, SUM(p.budget + e.salary) FROM dept d, proj p, emp e
		 WHERE d.dept_id = p.dept_id AND e.dept_id = d.dept_id GROUP BY d.name`,
		// Single-table block: nothing to push past.
		`SELECT p.dept_id, SUM(p.budget) FROM proj p GROUP BY p.dept_id`,
	}
	for _, src := range bad {
		q := qtree.MustBind(src, db.Catalog)
		if n := len(r.Find(q)); n != 0 {
			t.Errorf("group-by placement should refuse: %s", src)
		}
	}
}

func TestSetOpIntoJoinRefusesNestedSetChildren(t *testing.T) {
	db := testkit.TinyDB()
	r := findRule("set operators into joins")
	// MINUS whose left child is itself a set operation.
	src := `
(SELECT e.dept_id FROM emp e UNION ALL SELECT p.dept_id FROM proj p)
MINUS SELECT d.dept_id FROM dept d`
	q := qtree.MustBind(src, db.Catalog)
	if n := len(r.Find(q)); n != 0 {
		t.Errorf("nested set children should be refused, found %d", n)
	}
}

package exec

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/datum"
	"repro/internal/optimizer"
	"repro/internal/qtree"
	"repro/internal/storage"
	"repro/internal/testkit"
)

// runSQL optimizes and executes a query, returning rows as strings sorted
// for comparison.
func runSQL(t *testing.T, db *storage.DB, src string) []string {
	t.Helper()
	q, err := qtree.BindSQL(src, db.Catalog)
	if err != nil {
		t.Fatalf("bind %q: %v", src, err)
	}
	p := optimizer.New(db.Catalog)
	plan, err := p.Optimize(q)
	if err != nil {
		t.Fatalf("optimize %q: %v", src, err)
	}
	res, err := Run(db, plan)
	if err != nil {
		t.Fatalf("run %q: %v\n%s", src, err, optimizer.Explain(plan))
	}
	return rowStrings(res.Rows)
}

// runSQLOrdered keeps result order (for ORDER BY tests).
func runSQLOrdered(t *testing.T, db *storage.DB, src string) []string {
	t.Helper()
	q, err := qtree.BindSQL(src, db.Catalog)
	if err != nil {
		t.Fatalf("bind: %v", err)
	}
	p := optimizer.New(db.Catalog)
	plan, err := p.Optimize(q)
	if err != nil {
		t.Fatalf("optimize: %v", err)
	}
	res, err := Run(db, plan)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var out []string
	for _, r := range res.Rows {
		out = append(out, rowString(r))
	}
	return out
}

func rowString(r Row) string {
	parts := make([]string, len(r))
	for i, d := range r {
		parts[i] = d.String()
	}
	return strings.Join(parts, "|")
}

func rowStrings(rows []Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = rowString(r)
	}
	sort.Strings(out)
	return out
}

func expect(t *testing.T, got []string, want ...string) {
	t.Helper()
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("rows = %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("rows = %v, want %v", got, want)
		}
	}
}

func TestScanAndFilter(t *testing.T) {
	db := testkit.TinyDB()
	got := runSQL(t, db, `SELECT e.name FROM emp e WHERE e.salary > 150`)
	expect(t, got, "'bob'", "'cal'", "'eli'")
}

func TestIndexLookup(t *testing.T) {
	db := testkit.TinyDB()
	got := runSQL(t, db, `SELECT e.name FROM emp e WHERE e.emp_id = 3`)
	expect(t, got, "'cal'")
}

func TestJoin(t *testing.T) {
	db := testkit.TinyDB()
	got := runSQL(t, db, `
SELECT e.name, d.name FROM emp e, dept d
WHERE e.dept_id = d.dept_id AND d.loc_id = 1`)
	expect(t, got, "'ann'|'eng'", "'bob'|'eng'", "'eli'|'hr'")
}

func TestLeftOuterJoin(t *testing.T) {
	db := testkit.TinyDB()
	got := runSQL(t, db, `
SELECT e.name, d.name FROM emp e LEFT OUTER JOIN dept d ON e.dept_id = d.dept_id`)
	expect(t, got,
		"'ann'|'eng'", "'bob'|'eng'", "'cal'|'ops'", "'dee'|'ops'",
		"'eli'|'hr'", "'fay'|NULL")
}

func TestGroupByHaving(t *testing.T) {
	db := testkit.TinyDB()
	got := runSQL(t, db, `
SELECT e.dept_id, COUNT(*), AVG(e.salary) FROM emp e
WHERE e.dept_id IS NOT NULL
GROUP BY e.dept_id HAVING COUNT(*) > 1`)
	expect(t, got, "10|2|150", "20|2|175")
}

func TestAggregatesIgnoreNulls(t *testing.T) {
	db := testkit.TinyDB()
	got := runSQL(t, db, `SELECT COUNT(e.dept_id), COUNT(*), MIN(e.salary), MAX(e.salary), SUM(e.salary) FROM emp e`)
	expect(t, got, "5|6|50|300|1050")
}

func TestScalarAggOverEmptyInput(t *testing.T) {
	db := testkit.TinyDB()
	got := runSQL(t, db, `SELECT COUNT(*), SUM(e.salary) FROM emp e WHERE e.salary > 10000`)
	expect(t, got, "0|NULL")
}

func TestDistinct(t *testing.T) {
	db := testkit.TinyDB()
	got := runSQL(t, db, `SELECT DISTINCT e.dept_id FROM emp e`)
	expect(t, got, "10", "20", "30", "NULL")
}

func TestOrderByAndRownum(t *testing.T) {
	db := testkit.TinyDB()
	got := runSQLOrdered(t, db, `SELECT e.name FROM emp e ORDER BY e.salary DESC`)
	if got[0] != "'cal'" || got[len(got)-1] != "'dee'" {
		t.Errorf("order: %v", got)
	}
	got = runSQLOrdered(t, db, `
SELECT v.name FROM (SELECT e.name, e.salary FROM emp e ORDER BY e.salary DESC) v
WHERE rownum <= 2`)
	expect(t, got, "'cal'", "'eli'")
}

func TestExistsSubquery(t *testing.T) {
	db := testkit.TinyDB()
	got := runSQL(t, db, `
SELECT d.name FROM dept d WHERE EXISTS
(SELECT 1 FROM emp e WHERE e.dept_id = d.dept_id AND e.salary > 150)`)
	expect(t, got, "'eng'", "'ops'", "'hr'")
}

func TestNotExistsSubquery(t *testing.T) {
	db := testkit.TinyDB()
	got := runSQL(t, db, `
SELECT d.name FROM dept d WHERE NOT EXISTS
(SELECT 1 FROM emp e WHERE e.dept_id = d.dept_id)`)
	expect(t, got, "'empty'")
}

func TestInSubquery(t *testing.T) {
	db := testkit.TinyDB()
	got := runSQL(t, db, `
SELECT e.name FROM emp e WHERE e.dept_id IN
(SELECT d.dept_id FROM dept d WHERE d.loc_id = 1)`)
	expect(t, got, "'ann'", "'bob'", "'eli'")
}

func TestNotInWithNullsIsEmpty(t *testing.T) {
	db := testkit.TinyDB()
	// dept_id of emp contains NULL on the probe side; those rows are
	// suppressed. All dept ids appear in dept, so result is empty.
	got := runSQL(t, db, `
SELECT e.name FROM emp e WHERE e.dept_id NOT IN (SELECT d.dept_id FROM dept d)`)
	expect(t, got)
}

func TestNotInWithNullInSubquery(t *testing.T) {
	db := testkit.TinyDB()
	// The subquery returns a NULL (loc_id of dept 40): NOT IN over a set
	// containing NULL filters everything.
	got := runSQL(t, db, `
SELECT e.name FROM emp e WHERE e.dept_id NOT IN (SELECT d.loc_id FROM dept d)`)
	expect(t, got)
}

func TestNotInWithoutNulls(t *testing.T) {
	db := testkit.TinyDB()
	got := runSQL(t, db, `
SELECT e.name FROM emp e WHERE e.emp_id NOT IN
(SELECT e2.mgr_id FROM emp e2 WHERE e2.mgr_id IS NOT NULL)`)
	// Managers are 1 (ann), 2 (bob), 3 (cal); the rest are not managers.
	expect(t, got, "'dee'", "'eli'", "'fay'")
}

func TestScalarSubquery(t *testing.T) {
	db := testkit.TinyDB()
	got := runSQL(t, db, `
SELECT e.name FROM emp e
WHERE e.salary > (SELECT AVG(e2.salary) FROM emp e2 WHERE e2.dept_id = e.dept_id)`)
	// dept 10 avg 150 -> bob(200); dept 20 avg 175 -> cal(300); dept 30
	// avg 250 -> none; fay (null dept) -> avg over empty = NULL -> unknown.
	expect(t, got, "'bob'", "'cal'")
}

func TestAnyAllSubqueries(t *testing.T) {
	db := testkit.TinyDB()
	got := runSQL(t, db, `
SELECT e.name FROM emp e WHERE e.salary > ALL
(SELECT e2.salary FROM emp e2 WHERE e2.dept_id = 10)`)
	expect(t, got, "'cal'", "'eli'")
	got = runSQL(t, db, `
SELECT e.name FROM emp e WHERE e.salary < ANY
(SELECT e2.salary FROM emp e2 WHERE e2.dept_id = 20)`)
	// < ANY means < max(300, 50): everyone below 300.
	expect(t, got, "'ann'", "'bob'", "'dee'", "'eli'", "'fay'")
}

func TestUnionAndMinusAndIntersect(t *testing.T) {
	db := testkit.TinyDB()
	got := runSQL(t, db, `
SELECT d.loc_id FROM dept d WHERE d.loc_id IS NOT NULL
UNION SELECT e.dept_id FROM emp e WHERE e.emp_id = 1`)
	expect(t, got, "1", "2", "10")
	got = runSQL(t, db, `
SELECT e.dept_id FROM emp e MINUS SELECT d.dept_id FROM dept d`)
	expect(t, got, "NULL")
	got = runSQL(t, db, `
SELECT e.dept_id FROM emp e INTERSECT SELECT d.dept_id FROM dept d`)
	expect(t, got, "10", "20", "30")
}

func TestUnionAllKeepsDuplicates(t *testing.T) {
	db := testkit.TinyDB()
	got := runSQL(t, db, `
SELECT e.dept_id FROM emp e WHERE e.dept_id = 10
UNION ALL SELECT d.dept_id FROM dept d WHERE d.dept_id = 10`)
	expect(t, got, "10", "10", "10")
}

func TestInListAndBetweenAndLike(t *testing.T) {
	db := testkit.TinyDB()
	got := runSQL(t, db, `SELECT e.name FROM emp e WHERE e.dept_id IN (10, 30)`)
	expect(t, got, "'ann'", "'bob'", "'eli'")
	got = runSQL(t, db, `SELECT e.name FROM emp e WHERE e.salary BETWEEN 100 AND 200`)
	expect(t, got, "'ann'", "'bob'", "'fay'")
	got = runSQL(t, db, `SELECT e.name FROM emp e WHERE e.name LIKE '%a%'`)
	expect(t, got, "'ann'", "'cal'", "'fay'")
	got = runSQL(t, db, `SELECT e.name FROM emp e WHERE e.name LIKE '_a_'`)
	expect(t, got, "'cal'", "'fay'")
}

func TestCaseExpression(t *testing.T) {
	db := testkit.TinyDB()
	got := runSQL(t, db, `
SELECT e.name, CASE WHEN e.salary >= 200 THEN 'high' WHEN e.salary >= 100 THEN 'mid' ELSE 'low' END
FROM emp e WHERE e.dept_id = 20`)
	expect(t, got, "'cal'|'high'", "'dee'|'low'")
}

func TestGroupingSetsRollup(t *testing.T) {
	db := testkit.TinyDB()
	got := runSQL(t, db, `
SELECT d.loc_id, d.dept_id, COUNT(*) FROM dept d WHERE d.loc_id IS NOT NULL
GROUP BY ROLLUP(d.loc_id, d.dept_id)`)
	expect(t, got,
		// full sets
		"1|10|1", "1|30|1", "2|20|1",
		// by loc
		"1|NULL|2", "2|NULL|1",
		// grand total
		"NULL|NULL|3")
}

func TestViewAndCorrelatedView(t *testing.T) {
	db := testkit.TinyDB()
	got := runSQL(t, db, `
SELECT v.dept_id, v.avg_sal
FROM (SELECT e.dept_id, AVG(e.salary) avg_sal FROM emp e GROUP BY e.dept_id) v
WHERE v.avg_sal > 160`)
	expect(t, got, "20|175", "30|250")
}

func TestSubqueryCaching(t *testing.T) {
	db := testkit.TinyDB()
	q, err := qtree.BindSQL(`
SELECT e.name FROM emp e
WHERE e.salary > (SELECT AVG(e2.salary) FROM emp e2 WHERE e2.dept_id = e.dept_id)`, db.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	p := optimizer.New(db.Catalog)
	plan, err := p.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	e := &env{db: db, plan: plan, subqCache: map[*qtree.Subq]map[string]datum.Datum{}}
	it, err := build(e, plan.Root)
	if err != nil {
		t.Fatal(err)
	}
	if err := it.Open(nil); err != nil {
		t.Fatal(err)
	}
	for {
		r, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if r == nil {
			break
		}
	}
	// 6 emp rows but only 4 distinct dept_id correlation values
	// (10, 20, 30, NULL).
	if e.SubqExecs != 4 {
		t.Errorf("subquery executions = %d, want 4 (TIS caching)", e.SubqExecs)
	}
}

// TestSetOrderBySubqueryRunsOnce: a scalar subquery over a set operation
// that keeps its ORDER BY is uncorrelated (the ORDER BY names the set's own
// output), so it executes once, as the plan's effective-execution count
// says, on either engine and with the same rows.
func TestSetOrderBySubqueryRunsOnce(t *testing.T) {
	db := testkit.NewDB(testkit.SmallSizes(), 1)
	q := qtree.MustBind(`SELECT e.emp_id FROM employees e WHERE e.salary > (SELECT MAX(v.emp_id)
FROM (SELECT j.emp_id FROM job_history j UNION SELECT d.dept_id FROM departments d ORDER BY emp_id) v
WHERE ROWNUM <= 3)`, db.Catalog)
	plan, err := optimizer.New(db.Catalog).Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	var rows [2][]string
	for i, opts := range []Options{{}, {RowExec: true}} {
		e := newEnv(nil, db, plan)
		e.applyOptions(opts)
		res, err := runEnv(e)
		if err != nil {
			t.Fatal(err)
		}
		if e.SubqExecs != 1 {
			t.Errorf("RowExec=%v: subquery executions = %d, want 1", opts.RowExec, e.SubqExecs)
		}
		rows[i] = rowStrings(res.Rows)
	}
	if len(rows[0]) == 0 || strings.Join(rows[0], "\n") != strings.Join(rows[1], "\n") {
		t.Errorf("batch rows %v, row-engine rows %v", rows[0], rows[1])
	}
}

func TestErrorPropagation(t *testing.T) {
	db := testkit.TinyDB()
	q, err := qtree.BindSQL(`SELECT e.salary / (e.emp_id - 1) FROM emp e`, db.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	p := optimizer.New(db.Catalog)
	plan, err := p.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(db, plan); err == nil {
		t.Error("division by zero should propagate")
	}
}

func TestConcatAndArith(t *testing.T) {
	db := testkit.TinyDB()
	got := runSQL(t, db, `SELECT e.name || '-x', e.salary * 2 + 1 FROM emp e WHERE e.emp_id = 1`)
	expect(t, got, "'ann-x'|201")
}

func TestLikeMatcher(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%o", true},
		{"hello", "%ell%", true},
		{"hello", "h_llo", true},
		{"hello", "h_lo", false},
		{"", "%", true},
		{"", "_", false},
		{"abc", "%%c", true},
		{"abc", "a%b%c%", true},
	}
	for _, c := range cases {
		if got := likeMatch(c.s, c.p); got != c.want {
			t.Errorf("likeMatch(%q, %q) = %v, want %v", c.s, c.p, got, c.want)
		}
	}
}

func TestRowidsAreDistinct(t *testing.T) {
	db := testkit.TinyDB()
	got := runSQL(t, db, `SELECT DISTINCT e.rowid FROM emp e`)
	if len(got) != 6 {
		t.Errorf("rowids = %v", got)
	}
}

package qtree

import (
	"strings"
	"testing"

	"repro/internal/testkit"
)

const q1SQL = `
SELECT e1.employee_name, j.job_title
FROM employees e1, job_history j
WHERE e1.emp_id = j.emp_id AND
  j.start_date > '19980101' AND
  e1.salary > (SELECT AVG(e2.salary) FROM employees e2 WHERE e2.dept_id = e1.dept_id) AND
  e1.dept_id IN (SELECT d.dept_id FROM departments d, locations l
                 WHERE d.loc_id = l.loc_id AND l.country_id = 'US')`

func bindQ1(t *testing.T) *Query {
	t.Helper()
	db := testkit.NewDB(testkit.SmallSizes(), 1)
	q, err := BindSQL(q1SQL, db.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestBindQ1Structure(t *testing.T) {
	q := bindQ1(t)
	b := q.Root
	if len(b.From) != 2 {
		t.Fatalf("from = %d", len(b.From))
	}
	if len(b.Where) != 4 {
		t.Fatalf("where conjuncts = %d, want 4", len(b.Where))
	}
	// Locate the two subqueries.
	var scalar, in *Subq
	for _, w := range b.Where {
		WalkExpr(w, func(e Expr) bool {
			if s, ok := e.(*Subq); ok {
				switch s.Kind {
				case SubqScalar:
					scalar = s
				case SubqIn:
					in = s
				}
			}
			return true
		})
	}
	if scalar == nil || in == nil {
		t.Fatal("expected a scalar subquery and an IN subquery")
	}
	if !scalar.Block.IsCorrelated() {
		t.Error("AVG subquery should be correlated")
	}
	if in.Block.IsCorrelated() {
		t.Error("IN subquery should not be correlated")
	}
	if len(in.Block.From) != 2 {
		t.Errorf("IN subquery from = %d", len(in.Block.From))
	}
}

func TestBindErrors(t *testing.T) {
	db := testkit.NewDB(testkit.SmallSizes(), 1)
	bad := []string{
		`SELECT x.nope FROM employees x`,
		`SELECT e.emp_id FROM no_such_table e`,
		`SELECT emp_id FROM employees e, job_history j`, // ambiguous
		`SELECT e.emp_id FROM employees e, employees e`, // dup alias
		`SELECT e.emp_id FROM employees e WHERE AVG(e.salary) > 1`,
		`SELECT e.dept_id, e.salary FROM employees e GROUP BY e.dept_id`,
		`SELECT e.dept_id FROM employees e GROUP BY e.dept_id HAVING e.salary > ALL (SELECT d.budget FROM departments d)`,
		`SELECT e.emp_id FROM employees e WHERE e.emp_id IN (SELECT d.dept_id, d.loc_id FROM departments d)`,
		`SELECT (SELECT d.dept_id, d.loc_id FROM departments d) FROM employees e`,
		`SELECT SUM(MAX(e.salary)) FROM employees e`,
		`SELECT NO_SUCH_FUNC(e.salary) FROM employees e`,
		`SELECT UPPER(e.employee_name, 'x') FROM employees e`,
		`SELECT e.emp_id FROM employees e UNION SELECT d.dept_id, d.loc_id FROM departments d`,
		`SELECT e.emp_id + ROWNUM FROM employees e`,
		`SELECT e.emp_id FROM employees e WHERE e.salary LIKE 'x%'`,     // LIKE on numeric column
		`SELECT e.emp_id FROM employees e WHERE e.employee_name LIKE 5`, // numeric pattern
		`SELECT e.salary || 'x' FROM employees e`,                       // || on numeric column
	}
	for _, src := range bad {
		if _, err := BindSQL(src, db.Catalog); err == nil {
			t.Errorf("BindSQL(%q) should fail", src)
		}
	}
}

func TestBindStringOperandOK(t *testing.T) {
	// String-typed columns and literals pass the bind-time LIKE / || checks;
	// kinds that cannot be resolved statically are left for runtime.
	db := testkit.NewDB(testkit.SmallSizes(), 1)
	good := []string{
		`SELECT e.emp_id FROM employees e WHERE e.employee_name LIKE 'A%'`,
		`SELECT e.employee_name || '!' FROM employees e`,
		`SELECT e.emp_id FROM employees e WHERE UPPER(e.employee_name) LIKE 'A%'`,
	}
	for _, src := range good {
		if _, err := BindSQL(src, db.Catalog); err != nil {
			t.Errorf("BindSQL(%q): %v", src, err)
		}
	}
}

func TestBindAmbiguousOuterOK(t *testing.T) {
	// emp_id exists in both employees and job_history, but inside the
	// subquery the inner e2 binds first, so no ambiguity.
	db := testkit.NewDB(testkit.SmallSizes(), 1)
	src := `SELECT e.emp_id FROM employees e WHERE EXISTS
	        (SELECT 1 FROM job_history j WHERE j.emp_id = e.emp_id)`
	if _, err := BindSQL(src, db.Catalog); err != nil {
		t.Fatal(err)
	}
}

func TestRownumBecomesLimit(t *testing.T) {
	db := testkit.NewDB(testkit.SmallSizes(), 1)
	q, err := BindSQL(`SELECT e.emp_id FROM employees e WHERE rownum < 20 AND e.salary > 0`, db.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	if q.Root.Limit != 19 {
		t.Errorf("limit = %d, want 19", q.Root.Limit)
	}
	if len(q.Root.Where) != 1 {
		t.Errorf("where conjuncts = %d, want 1", len(q.Root.Where))
	}
	q, err = BindSQL(`SELECT e.emp_id FROM employees e WHERE 20 >= rownum`, db.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	if q.Root.Limit != 20 {
		t.Errorf("limit = %d, want 20", q.Root.Limit)
	}
}

func TestBindLeftOuterJoin(t *testing.T) {
	db := testkit.NewDB(testkit.SmallSizes(), 1)
	q, err := BindSQL(`
SELECT e.employee_name, d.department_name
FROM employees e LEFT OUTER JOIN departments d ON e.dept_id = d.dept_id
WHERE e.salary > 100`, db.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	b := q.Root
	if len(b.From) != 2 {
		t.Fatalf("from = %d", len(b.From))
	}
	d := b.From[1]
	if d.Kind != JoinLeftOuter || len(d.Cond) != 1 {
		t.Errorf("outer join item: kind=%v cond=%d", d.Kind, len(d.Cond))
	}
}

func TestBindRowid(t *testing.T) {
	db := testkit.NewDB(testkit.SmallSizes(), 1)
	q, err := BindSQL(`SELECT j.rowid FROM job_history j`, db.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	c := q.Root.Select[0].Expr.(*Col)
	if c.Ord != db.Catalog.Table("JOB_HISTORY").RowidOrdinal() {
		t.Errorf("rowid ordinal = %d", c.Ord)
	}
}

func TestBindGroupingSetsAndRollup(t *testing.T) {
	db := testkit.NewDB(testkit.SmallSizes(), 1)
	q, err := BindSQL(`
SELECT s.country_id, s.state_id, SUM(s.amount) total
FROM sales s GROUP BY ROLLUP(s.country_id, s.state_id)`, db.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	b := q.Root
	if len(b.GroupingSets) != 3 {
		t.Fatalf("rollup sets = %d, want 3", len(b.GroupingSets))
	}
	if len(b.GroupingSets[0]) != 2 || len(b.GroupingSets[2]) != 0 {
		t.Errorf("rollup shape wrong: %v", b.GroupingSets)
	}
}

func TestBindSetOps(t *testing.T) {
	db := testkit.NewDB(testkit.SmallSizes(), 1)
	q, err := BindSQL(`
SELECT e.emp_id FROM employees e
UNION ALL SELECT j.emp_id FROM job_history j
UNION ALL SELECT s.emp_id FROM sales s`, db.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	if q.Root.Set == nil || q.Root.Set.Kind != SetUnionAll {
		t.Fatal("expected UNION ALL block")
	}
	if len(q.Root.Set.Children) != 3 {
		t.Errorf("union-all flattening: children = %d, want 3", len(q.Root.Set.Children))
	}
}

func TestCloneRemapsIDs(t *testing.T) {
	q := bindQ1(t)
	clone, remap := q.Clone()
	// All from IDs must be remapped to new IDs.
	orig := map[FromID]bool{}
	visitFromItems(q.Root, func(f *FromItem) { orig[f.ID] = true })
	cloned := map[FromID]bool{}
	visitFromItems(clone.Root, func(f *FromItem) { cloned[f.ID] = true })
	if len(orig) != len(cloned) {
		t.Fatalf("item counts differ: %d vs %d", len(orig), len(cloned))
	}
	if len(orig) != 5 {
		t.Fatalf("Q1 has 5 from items (e1, j, e2, d, l), got %d", len(orig))
	}
	for id := range orig {
		n := remap.Lookup(id)
		if !cloned[n] {
			t.Errorf("remap of %d = %d not present in clone", id, n)
		}
	}
	// No reference in the clone points to an original ID.
	clone.Root.Cols(func(c *Col) {
		if !cloned[c.From] {
			t.Errorf("clone references unknown from ID %d", c.From)
		}
	})
}

func TestClonePreservesSQL(t *testing.T) {
	q := bindQ1(t)
	clone, _ := q.Clone()
	// Canonical rendering must be identical: same structure, different IDs.
	if q.CanonicalKey(q.Root) != clone.CanonicalKey(clone.Root) {
		t.Errorf("canonical keys differ:\n%s\n%s",
			q.CanonicalKey(q.Root), clone.CanonicalKey(clone.Root))
	}
}

func TestCloneIsDeep(t *testing.T) {
	q := bindQ1(t)
	clone, _ := q.Clone()
	// Mutating the clone must not affect the original.
	before := q.SQL()
	clone.Root.Where = clone.Root.Where[:1]
	clone.Root.From = clone.Root.From[:1]
	if q.SQL() != before {
		t.Error("mutating clone changed original")
	}
}

func TestCloneBlockIntoPreservesCorrelation(t *testing.T) {
	q := bindQ1(t)
	// Find the correlated AVG subquery.
	var sub *Block
	for _, w := range q.Root.Where {
		WalkExpr(w, func(e Expr) bool {
			if s, ok := e.(*Subq); ok && s.Kind == SubqScalar {
				sub = s.Block
			}
			return true
		})
	}
	if sub == nil {
		t.Fatal("no scalar subquery")
	}
	outerRefs := func(b *Block) map[FromID]bool {
		refs := map[FromID]bool{}
		b.OuterCols(func(c *Col) { refs[c.From] = true })
		return refs
	}
	outerBefore := outerRefs(sub)
	cl := CloneBlockInto(sub, q)
	outerAfter := outerRefs(cl)
	if len(outerBefore) != 1 || len(outerAfter) != 1 {
		t.Fatalf("outer refs: before=%d after=%d", len(outerBefore), len(outerAfter))
	}
	for id := range outerBefore {
		if !outerAfter[id] {
			t.Error("correlated reference should be preserved by block clone")
		}
	}
	// Local items must have new IDs.
	if cl.From[0].ID == sub.From[0].ID {
		t.Error("local from item should get a fresh ID")
	}
}

func TestOuterRefs(t *testing.T) {
	q := bindQ1(t)
	if q.Root.IsCorrelated() {
		t.Error("root block cannot be correlated")
	}
}

// TestOuterColsSkipsSetOutputRefs pins that a set operation's ORDER BY
// reference (From 0, the set's own output) is not an outer reference: a
// view or a subquery that keeps one is uncorrelated.
func TestOuterColsSkipsSetOutputRefs(t *testing.T) {
	db := testkit.NewDB(testkit.SmallSizes(), 1)
	outer := func(b *Block) []string {
		var out []string
		b.OuterCols(func(c *Col) { out = append(out, c.String()) })
		return out
	}
	q, err := BindSQL(`SELECT v.emp_id FROM (SELECT e.emp_id FROM employees e
		UNION SELECT j.emp_id FROM job_history j ORDER BY emp_id) v`, db.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	if got := outer(q.Root); q.Root.IsCorrelated() || len(got) != 0 {
		t.Errorf("root over a set view with ORDER BY: IsCorrelated = %v, OuterCols = %v, want false and none",
			q.Root.IsCorrelated(), got)
	}
	q, err = BindSQL(`SELECT e.emp_id FROM employees e WHERE e.salary > (SELECT MAX(v.emp_id)
		FROM (SELECT j.emp_id FROM job_history j UNION SELECT d.dept_id FROM departments d ORDER BY emp_id) v
		WHERE ROWNUM <= 3 AND v.emp_id <> e.emp_id AND e.dept_id > 0)`, db.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	sub := q.Root.Where[0].(*Bin).R.(*Subq).Block
	// Correlated references come in Cols order, one call per reference.
	if got, want := strings.Join(outer(sub), " "), "q1.EMP_ID q1.DEPT_ID"; got != want {
		t.Errorf("scalar subquery OuterCols = %q, want %q", got, want)
	}
	sub.Where = sub.Where[:0]
	if got := outer(sub); sub.IsCorrelated() || len(got) != 0 {
		t.Errorf("uncorrelated scalar subquery over a set view with ORDER BY: IsCorrelated = %v, OuterCols = %v",
			sub.IsCorrelated(), got)
	}
}

func TestSQLRendering(t *testing.T) {
	q := bindQ1(t)
	s := q.SQL()
	for _, want := range []string{"SELECT", "EMPLOYEES e1", "JOB_HISTORY j", "AVG(", "IN (SELECT"} {
		if !strings.Contains(s, want) {
			t.Errorf("SQL missing %q in:\n%s", want, s)
		}
	}
}

func TestCanonicalKeyDiffersAfterMutation(t *testing.T) {
	q := bindQ1(t)
	clone, _ := q.Clone()
	clone.Root.Where = clone.Root.Where[:2]
	if q.CanonicalKey(q.Root) == clone.CanonicalKey(clone.Root) {
		t.Error("canonical keys should differ for structurally different blocks")
	}
}

func TestSplitAndAll(t *testing.T) {
	db := testkit.NewDB(testkit.SmallSizes(), 1)
	q, err := BindSQL(`SELECT e.emp_id FROM employees e WHERE e.salary > 1 AND e.dept_id = 2 AND e.emp_id < 100`, db.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Root.Where) != 3 {
		t.Fatalf("conjuncts = %d", len(q.Root.Where))
	}
	joined := AndAll(q.Root.Where)
	if got := len(SplitAnd(joined)); got != 3 {
		t.Errorf("SplitAnd(AndAll) = %d conjuncts", got)
	}
}

func TestHasGroupByAndOutCols(t *testing.T) {
	db := testkit.NewDB(testkit.SmallSizes(), 1)
	q, err := BindSQL(`SELECT AVG(e.salary) avg_sal FROM employees e`, db.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Root.HasGroupBy() {
		t.Error("implicit aggregation should count as grouped")
	}
	cols := q.Root.OutCols()
	if len(cols) != 1 || cols[0] != "avg_sal" {
		t.Errorf("out cols = %v", cols)
	}
}

func TestBetweenDesugars(t *testing.T) {
	db := testkit.NewDB(testkit.SmallSizes(), 1)
	q, err := BindSQL(`SELECT e.emp_id FROM employees e WHERE e.salary BETWEEN 10 AND 20`, db.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Root.Where) != 2 {
		t.Errorf("BETWEEN should desugar to 2 conjuncts, got %d", len(q.Root.Where))
	}
}

func TestNotFoldsSubqueries(t *testing.T) {
	db := testkit.NewDB(testkit.SmallSizes(), 1)
	q, err := BindSQL(`SELECT e.emp_id FROM employees e WHERE NOT EXISTS
	  (SELECT 1 FROM job_history j WHERE j.emp_id = e.emp_id)`, db.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	s, ok := q.Root.Where[0].(*Subq)
	if !ok || s.Kind != SubqNotExists {
		t.Errorf("NOT EXISTS should fold into SubqNotExists, got %v", q.Root.Where[0])
	}
}

func TestQuantBinding(t *testing.T) {
	db := testkit.NewDB(testkit.SmallSizes(), 1)
	cases := []struct {
		src  string
		kind SubqKind
	}{
		{`SELECT e.emp_id FROM employees e WHERE e.dept_id = ANY (SELECT d.dept_id FROM departments d)`, SubqIn},
		{`SELECT e.emp_id FROM employees e WHERE e.dept_id <> ALL (SELECT d.dept_id FROM departments d)`, SubqNotIn},
		{`SELECT e.emp_id FROM employees e WHERE e.salary > ANY (SELECT d.budget FROM departments d)`, SubqAnyCmp},
		{`SELECT e.emp_id FROM employees e WHERE e.salary > ALL (SELECT d.budget FROM departments d)`, SubqAllCmp},
	}
	for _, c := range cases {
		q, err := BindSQL(c.src, db.Catalog)
		if err != nil {
			t.Fatalf("%s: %v", c.src, err)
		}
		s, ok := q.Root.Where[0].(*Subq)
		if !ok || s.Kind != c.kind {
			t.Errorf("%s: kind = %v, want %v", c.src, s.Kind, c.kind)
		}
	}
}

func TestOrderByAlias(t *testing.T) {
	db := testkit.NewDB(testkit.SmallSizes(), 1)
	q, err := BindSQL(`SELECT e.dept_id, AVG(e.salary) avg_sal FROM employees e
		GROUP BY e.dept_id ORDER BY avg_sal DESC`, db.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Root.OrderBy) != 1 || !q.Root.OrderBy[0].Desc {
		t.Fatal("order by")
	}
	if _, ok := q.Root.OrderBy[0].Expr.(*Agg); !ok {
		t.Error("alias should resolve to the aggregate expression")
	}
}

// TestBindCopiesSubqueryWithFreshIDs: where the binder copies an expression
// (an ORDER BY alias, BETWEEN's operand), a subquery in it is copied with its
// own block and from IDs, so no from item is defined twice.
func TestBindCopiesSubqueryWithFreshIDs(t *testing.T) {
	db := testkit.NewDB(testkit.SmallSizes(), 1)
	for _, src := range []string{
		`SELECT e.emp_id, (SELECT MAX(d.dept_id) FROM departments d WHERE d.dept_id < e.dept_id) m FROM employees e ORDER BY m`,
		`SELECT e.emp_id FROM employees e WHERE (SELECT MAX(d.dept_id) FROM departments d WHERE d.dept_id < e.dept_id) BETWEEN 2 AND 5`,
	} {
		q, err := BindSQL(src, db.Catalog)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		blocks, items := map[int]bool{}, map[FromID]bool{}
		q.Root.Walk(func(b *Block) bool {
			if blocks[b.ID] {
				t.Errorf("%s: block %d appears twice", src, b.ID)
			}
			blocks[b.ID] = true
			for _, f := range b.From {
				if items[f.ID] {
					t.Errorf("%s: from ID q%d is defined twice", src, f.ID)
				}
				items[f.ID] = true
			}
			return true
		})
		if len(blocks) != 3 {
			t.Errorf("%s: %d blocks, want the query and two copies of the subquery", src, len(blocks))
		}
	}
}

func TestStarExpansion(t *testing.T) {
	db := testkit.NewDB(testkit.SmallSizes(), 1)
	q, err := BindSQL(`SELECT * FROM departments d`, db.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Root.Select) != 4 {
		t.Errorf("star expanded to %d columns, want 4 (rowid excluded)", len(q.Root.Select))
	}
	q, err = BindSQL(`SELECT d.* , l.city FROM departments d, locations l WHERE d.loc_id = l.loc_id`, db.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Root.Select) != 5 {
		t.Errorf("qualified star: %d columns, want 5", len(q.Root.Select))
	}
}

func TestViewColumnsResolve(t *testing.T) {
	db := testkit.NewDB(testkit.SmallSizes(), 1)
	q, err := BindSQL(`
SELECT v.avg_sal, v.dept_id
FROM (SELECT AVG(e.salary) avg_sal, e.dept_id FROM employees e GROUP BY e.dept_id) v
WHERE v.avg_sal > 100`, db.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	c := q.Root.Select[0].Expr.(*Col)
	if c.Ord != 0 {
		t.Errorf("avg_sal should be view ordinal 0, got %d", c.Ord)
	}
	v := q.Root.From[0]
	if v.View == nil || !v.View.HasGroupBy() {
		t.Error("from item should be a group-by view")
	}
}

func TestWindowFunctionBindAndClone(t *testing.T) {
	db := testkit.NewDB(testkit.SmallSizes(), 1)
	q, err := BindSQL(`
SELECT a.acct_id, AVG(a.balance) OVER (PARTITION BY a.acct_id ORDER BY a.time) ravg
FROM accounts a`, db.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	w, ok := q.Root.Select[1].Expr.(*WinFunc)
	if !ok || w.Op != WinAvg || !w.Running {
		t.Fatalf("window bind: %T", q.Root.Select[1].Expr)
	}
	if q.Root.HasGroupBy() {
		t.Error("window function must not imply grouping")
	}
	if !q.Root.HasWindowFuncs() {
		t.Error("HasWindowFuncs")
	}
	clone, _ := q.Clone()
	if q.CanonicalKey(q.Root) != clone.CanonicalKey(clone.Root) {
		t.Error("window clone should preserve canonical form")
	}
}

func TestKitchenSinkRendering(t *testing.T) {
	db := testkit.NewDB(testkit.SmallSizes(), 1)
	// One query touching nearly every expression form, rendered both as
	// display SQL and canonical key, plus String() on raw expressions.
	q, err := BindSQL(`
SELECT DISTINCT e.employee_name || '-x' n,
       CASE WHEN e.salary >= 5000 THEN 'high' ELSE 'low' END band,
       NVL(e.mgr_id, -1) mgr,
       COUNT(*) OVER (PARTITION BY e.dept_id) cnt
FROM employees e
WHERE e.salary BETWEEN 100 AND 9999
  AND e.employee_name LIKE 'emp%'
  AND e.dept_id IN (1, 2, 3)
  AND e.mgr_id IS NOT NULL
  AND NOT (e.job_id = 5 OR e.job_id = 6)
  AND e.emp_id IN (SELECT j.emp_id FROM job_history j WHERE j.start_date > '19990101')
  AND e.salary > ANY (SELECT d.budget / 100 FROM departments d)
  AND e.salary < ALL (SELECT d2.budget FROM departments d2)`, db.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	s := q.SQL()
	for _, want := range []string{"DISTINCT", "CASE", "NVL", "OVER", "LIKE", "IN (1, 2, 3)", "IS NOT NULL", "ANY", "ALL"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering missing %q:\n%s", want, s)
		}
	}
	key := q.CanonicalKey(q.Root)
	if key == "" || key == s {
		t.Error("canonical key should differ from display SQL")
	}
	// Raw String() on every expression (exercise debug rendering).
	q.Root.VisitExprs(func(e Expr) {
		if e.String() == "" {
			t.Errorf("empty String() for %T", e)
		}
	})
	// Clone remains renderable and canonical-equal.
	clone, _ := q.Clone()
	if clone.CanonicalKey(clone.Root) != key {
		t.Error("clone canonical key differs")
	}
}

func TestFullOuterJoinBinding(t *testing.T) {
	db := testkit.NewDB(testkit.SmallSizes(), 1)
	q, err := BindSQL(`
SELECT d.department_name, e.employee_name
FROM departments d FULL OUTER JOIN employees e ON d.dept_id = e.dept_id`, db.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	if q.Root.From[1].Kind != JoinFullOuter {
		t.Errorf("kind = %v", q.Root.From[1].Kind)
	}
	// RIGHT JOIN normalizes: employees becomes the padded side.
	q, err = BindSQL(`
SELECT d.department_name, e.employee_name
FROM employees e RIGHT OUTER JOIN departments d ON d.dept_id = e.dept_id`, db.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	if q.Root.From[0].Kind != JoinLeftOuter {
		t.Errorf("normalized kind = %v on %v", q.Root.From[0].Kind, q.Root.From[0].Alias)
	}
}

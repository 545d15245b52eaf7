package qtree_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/qtree"
	"repro/internal/testkit"
)

// cowSQLs spans the block shapes the transformation rules rewrite: plain
// selects, inline views, correlated subqueries, grouping and set operations.
var cowSQLs = []string{
	"SELECT e.NAME FROM EMP e",
	"SELECT e.NAME, e.SALARY FROM EMP e WHERE e.DEPT_ID = 1 AND e.SALARY > 10",
	"SELECT e.EMP_ID, v.N FROM EMP e, (SELECT d.NAME AS N, d.DEPT_ID AS ID FROM DEPT d WHERE d.LOC_ID = 3) v WHERE e.DEPT_ID = v.ID",
	"SELECT e.NAME FROM EMP e WHERE EXISTS (SELECT 1 FROM DEPT d WHERE d.DEPT_ID = e.DEPT_ID AND d.LOC_ID = 7)",
	"SELECT e.NAME FROM EMP e WHERE NOT EXISTS (SELECT 1 FROM DEPT d WHERE d.DEPT_ID = e.DEPT_ID)",
	"SELECT e.NAME FROM EMP e WHERE e.DEPT_ID IN (SELECT d.DEPT_ID FROM DEPT d WHERE d.LOC_ID = 3)",
	"SELECT e.DEPT_ID, AVG(e.SALARY) AS A FROM EMP e GROUP BY e.DEPT_ID ORDER BY e.DEPT_ID",
	"SELECT e.NAME FROM EMP e UNION ALL SELECT d.NAME FROM DEPT d",
	"SELECT e.EMP_ID, w.M FROM EMP e, (SELECT v.N AS M FROM (SELECT d.NAME AS N FROM DEPT d) v) w",
	nestedLeftSQL,
}

// nestedLeftSQL holds a subquery in another subquery's left operand.
const nestedLeftSQL = "SELECT e.NAME FROM EMP e WHERE (SELECT MAX(d.LOC_ID) FROM DEPT d WHERE d.DEPT_ID = e.DEPT_ID) > ALL (SELECT d2.LOC_ID FROM DEPT d2 WHERE d2.DEPT_ID < 3)"

// TestCOWNestedLeftSubquery: a subquery nested in another subquery's left
// operand is a block of the clone like any other. Mutable reaches it through
// that operand and relinks it, MutableDeep materializes it, and the base
// never changes.
func TestCOWNestedLeftSubquery(t *testing.T) {
	q := bindCOW(t, nestedLeftSQL)
	before := q.SQL()
	snap := check.Snapshot(q)
	var nested *qtree.Block
	q.Root.Walk(func(b *qtree.Block) bool {
		if len(b.From) == 1 && b.From[0].Alias == "d" {
			nested = b
		}
		return true
	})
	if nested == nil {
		t.Fatalf("Walk does not reach the nested subquery block of %s", before)
	}

	c := q.CloneCOW()
	c.Mutable(nested).Distinct = true
	if got := c.SQL(); got == before || !strings.Contains(got, "(SELECT DISTINCT MAX(d.LOC_ID)") {
		t.Errorf("the clone's nested block did not take the mutation: %s", got)
	}
	deep := q.CloneCOW()
	deep.MutableDeep(deep.Root)
	if shared, _, _ := deep.COWStats(); shared != 0 {
		t.Errorf("MutableDeep of the root left %d blocks shared", shared)
	}
	for _, vq := range []*qtree.Query{q, c, deep} {
		if vs := check.Aliasing(vq); len(vs) > 0 {
			t.Errorf("aliasing violations: %v", vs)
		}
	}
	if got := q.SQL(); got != before {
		t.Errorf("base changed:\n got %s\nwant %s", got, before)
	}
	if vs := snap.Verify(); len(vs) > 0 {
		t.Errorf("base snapshot violated: %v", vs)
	}
}

func bindCOW(t *testing.T, sql string) *qtree.Query {
	t.Helper()
	db := testkit.TinyDB()
	q, err := qtree.BindSQL(sql, db.Catalog)
	if err != nil {
		t.Fatalf("bind %q: %v", sql, err)
	}
	return q
}

// mutateEveryBlock materializes every block of the COW clone and rewrites
// each one visibly (flipping Distinct and dropping WHERE/HAVING), the most
// invasive legal mutation a transformation could perform.
func mutateEveryBlock(q *qtree.Query) {
	root := q.MutableDeep(q.Root)
	var walk func(b *qtree.Block)
	walk = func(b *qtree.Block) {
		if b == nil {
			return
		}
		b.Distinct = !b.Distinct
		b.Where = nil
		b.Having = nil
		if b.Set != nil {
			for _, c := range b.Set.Children {
				walk(c)
			}
		}
		for _, f := range b.From {
			if f.View != nil {
				walk(f.View)
			}
		}
	}
	walk(root)
}

// TestCOWCloneIsolation is the core aliasing property: after a COW clone is
// mutated — through Mutable on one block or MutableDeep on the whole tree —
// the base renders byte-identical SQL, passes the semantic checker, and its
// tree snapshot verifies untouched. A sibling clone taken before the
// mutation is equally unaffected.
func TestCOWCloneIsolation(t *testing.T) {
	for i, sql := range cowSQLs {
		t.Run(fmt.Sprintf("q%d", i), func(t *testing.T) {
			q := bindCOW(t, sql)
			before := q.SQL()
			snap := check.Snapshot(q)

			c1 := q.CloneCOW()
			c2 := q.CloneCOW()
			c1Before := c1.SQL()
			if c1Before != before {
				t.Fatalf("fresh COW clone renders differently:\n got %s\nwant %s", c1Before, before)
			}

			mutateEveryBlock(c1)

			if got := q.SQL(); got != before {
				t.Errorf("base changed after clone mutation:\n got %s\nwant %s", got, before)
			}
			if got := c2.SQL(); got != before {
				t.Errorf("sibling clone changed after clone mutation:\n got %s\nwant %s", got, before)
			}
			if vs := snap.Verify(); len(vs) > 0 {
				t.Errorf("base snapshot violated: %v", vs)
			}
			for _, vq := range []*qtree.Query{q, c1, c2} {
				if vs := check.Aliasing(vq); len(vs) > 0 {
					t.Errorf("aliasing violations: %v", vs)
				}
			}
			if vs := check.Query(q); len(vs) > 0 {
				t.Errorf("base fails semantic check after clone mutation: %v", vs)
			}
		})
	}
}

// TestCOWSingleBlockMutation mutates exactly one block through Mutable and
// asserts the clone diverges while the base and the untouched sibling
// blocks stay shared.
func TestCOWSingleBlockMutation(t *testing.T) {
	// Two sibling views: mutating one must leave the other shared.
	q := bindCOW(t, "SELECT v.N, w.M FROM (SELECT d.NAME AS N FROM DEPT d) v, (SELECT e.NAME AS M FROM EMP e) w")
	before := q.SQL()

	c := q.CloneCOW()
	view := q.Root.From[0].View
	m := c.Mutable(view)
	m.Distinct = true

	if got := q.SQL(); got != before {
		t.Fatalf("base changed:\n got %s\nwant %s", got, before)
	}
	if got := c.SQL(); got == before {
		t.Fatal("clone did not diverge after Mutable mutation")
	}
	if vs := check.Aliasing(c); len(vs) > 0 {
		t.Fatalf("aliasing violations on mutated clone: %v", vs)
	}
	shared, owned, _ := c.COWStats()
	if shared == 0 {
		t.Error("no blocks remain shared after a single-block mutation")
	}
	// Mutable copies the root→view path: the root and the view are owned.
	if owned != 2 {
		t.Errorf("owned blocks = %d, want 2 (root + view)", owned)
	}
}

// TestCOWMaterializeKeepsIDs asserts full materialization is ID-transparent:
// every block keeps its original ID, every from item its FromID, and the
// clone's ID counters match the base's — the property that makes COW and
// full-clone searches enumerate identical states.
func TestCOWMaterializeKeepsIDs(t *testing.T) {
	type ids struct {
		blocks []int
		froms  []qtree.FromID
	}
	collect := func(q *qtree.Query) ids {
		var out ids
		var walk func(b *qtree.Block)
		walk = func(b *qtree.Block) {
			if b == nil {
				return
			}
			out.blocks = append(out.blocks, b.ID)
			if b.Set != nil {
				for _, c := range b.Set.Children {
					walk(c)
				}
			}
			for _, f := range b.From {
				out.froms = append(out.froms, f.ID)
				if f.View != nil {
					walk(f.View)
				}
			}
		}
		walk(q.Root)
		return out
	}
	for i, sql := range cowSQLs {
		t.Run(fmt.Sprintf("q%d", i), func(t *testing.T) {
			q := bindCOW(t, sql)
			base := collect(q)
			baseFrom, baseBlk := q.IDCounters()

			c := q.CloneCOW()
			c.MutableDeep(c.Root)

			clone := collect(c)
			if fmt.Sprint(clone.blocks) != fmt.Sprint(base.blocks) {
				t.Errorf("block IDs changed: got %v want %v", clone.blocks, base.blocks)
			}
			if fmt.Sprint(clone.froms) != fmt.Sprint(base.froms) {
				t.Errorf("from IDs changed: got %v want %v", clone.froms, base.froms)
			}
			cf, cb := c.IDCounters()
			if cf != baseFrom || cb != baseBlk {
				t.Errorf("ID counters diverged: clone (%d,%d) base (%d,%d)", cf, cb, baseFrom, baseBlk)
			}
			if got := c.SQL(); got != q.SQL() {
				t.Errorf("materialized clone renders differently:\n got %s\nwant %s", got, q.SQL())
			}
		})
	}
}

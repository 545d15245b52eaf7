package exec

import (
	"testing"

	"repro/internal/qtree"
	"repro/internal/storage"
	"repro/internal/testkit"
)

func bindOnly(db *storage.DB, src string) (*qtree.Query, error) {
	return qtree.BindSQL(src, db.Catalog)
}

// Window function tests run against the tiny EMP table:
//
//	dept 10: ann(100), bob(200)
//	dept 20: cal(300), dee(50)
//	dept 30: eli(250)
//	NULL:    fay(150)

func TestWindowWholePartition(t *testing.T) {
	db := testkit.TinyDB()
	got := runSQL(t, db, `
SELECT e.name, AVG(e.salary) OVER (PARTITION BY e.dept_id) FROM emp e`)
	expect(t, got,
		"'ann'|150", "'bob'|150",
		"'cal'|175", "'dee'|175",
		"'eli'|250",
		"'fay'|150") // NULL dept is its own partition
}

func TestWindowRunningSum(t *testing.T) {
	db := testkit.TinyDB()
	// Running sum by emp_id order within each department.
	got := runSQL(t, db, `
SELECT e.name, SUM(e.salary) OVER (PARTITION BY e.dept_id ORDER BY e.emp_id) FROM emp e`)
	expect(t, got,
		"'ann'|100", "'bob'|300", // dept 10: 100, then 100+200
		"'cal'|300", "'dee'|350", // dept 20: 300, then 300+50
		"'eli'|250",
		"'fay'|150")
}

func TestWindowRunningRangePeers(t *testing.T) {
	db := testkit.TinyDB()
	// RANGE frame: order-key ties are peers and share the frame. Order by
	// dept_id without partitioning; dept 10 has two peer rows.
	got := runSQL(t, db, `
SELECT e.name, COUNT(*) OVER (ORDER BY e.dept_id
  RANGE BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) FROM emp e
WHERE e.dept_id IS NOT NULL`)
	expect(t, got,
		"'ann'|2", "'bob'|2", // peers at dept 10
		"'cal'|4", "'dee'|4", // peers at dept 20
		"'eli'|5")
}

func TestWindowRowNumber(t *testing.T) {
	db := testkit.TinyDB()
	got := runSQL(t, db, `
SELECT e.name, ROW_NUMBER() OVER (PARTITION BY e.dept_id ORDER BY e.salary DESC)
FROM emp e WHERE e.dept_id IS NOT NULL`)
	expect(t, got,
		"'bob'|1", "'ann'|2",
		"'cal'|1", "'dee'|2",
		"'eli'|1")
}

func TestWindowCountStarAndExplicitFrame(t *testing.T) {
	db := testkit.TinyDB()
	got := runSQL(t, db, `
SELECT e.name, COUNT(*) OVER (PARTITION BY e.dept_id ORDER BY e.emp_id
  ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) FROM emp e
WHERE e.dept_id = 10`)
	expect(t, got, "'ann'|1", "'bob'|2")
}

func TestWindowInView(t *testing.T) {
	db := testkit.TinyDB()
	// The paper's Q7 shape: running aggregate in a view, filtered outside.
	got := runSQL(t, db, `
SELECT v.name, v.ravg FROM
(SELECT e.name name, e.dept_id d,
        AVG(e.salary) OVER (PARTITION BY e.dept_id ORDER BY e.emp_id) ravg
 FROM emp e) v
WHERE v.d = 10`)
	expect(t, got, "'ann'|100", "'bob'|150")
}

func TestWindowBindErrors(t *testing.T) {
	db := testkit.TinyDB()
	bad := []string{
		// Window in WHERE.
		`SELECT e.name FROM emp e WHERE SUM(e.salary) OVER (PARTITION BY e.dept_id) > 10`,
		// Window with GROUP BY.
		`SELECT SUM(e.salary) OVER (PARTITION BY e.dept_id) FROM emp e GROUP BY e.dept_id`,
		// DISTINCT window aggregate.
		`SELECT COUNT(DISTINCT e.salary) OVER (PARTITION BY e.dept_id) FROM emp e`,
		// ROW_NUMBER needs ORDER BY.
		`SELECT ROW_NUMBER() OVER (PARTITION BY e.dept_id) FROM emp e`,
		// Non-aggregate window function name.
		`SELECT UPPER(e.name) OVER (PARTITION BY e.dept_id) FROM emp e`,
	}
	for _, src := range bad {
		if _, err := bindOnly(db, src); err == nil {
			t.Errorf("should fail: %s", src)
		}
	}
}

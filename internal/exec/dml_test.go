package exec

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/datum"
	"repro/internal/optimizer"
	"repro/internal/qtree"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/testkit"
)

// runDML parses, binds, optimizes and executes one mutation statement.
func runDML(t *testing.T, db *storage.DB, src string, params ...datum.Datum) *DMLResult {
	t.Helper()
	res, err := tryDML(db, src, params...)
	if err != nil {
		t.Fatalf("dml %q: %v", src, err)
	}
	return res
}

func tryDML(db *storage.DB, src string, params ...datum.Datum) (*DMLResult, error) {
	stmt, err := sql.ParseStatement(src)
	if err != nil {
		return nil, err
	}
	bound, err := qtree.BindStatement(stmt, db.Catalog)
	if err != nil {
		return nil, err
	}
	dml, ok := bound.(*qtree.DMLStmt)
	if !ok {
		return nil, errors.New("not a DML statement")
	}
	var plan *optimizer.Plan
	if dml.Read != nil {
		plan, err = optimizer.New(db.Catalog).Optimize(dml.Read)
		if err != nil {
			return nil, err
		}
	}
	return RunDML(context.Background(), db, dml, plan, params, Options{})
}

func TestInsertValues(t *testing.T) {
	db := testkit.TinyDB()
	res := runDML(t, db, "INSERT INTO DEPT VALUES (50, 'lab', 3), (60, 'qa', NULL)")
	if res.Affected != 2 {
		t.Fatalf("affected = %d, want 2", res.Affected)
	}
	got := runSQL(t, db, "SELECT name FROM dept WHERE dept_id >= 50")
	if strings.Join(got, ",") != "'lab','qa'" {
		t.Errorf("inserted rows = %v", got)
	}
}

func TestInsertColumnListAndDefaults(t *testing.T) {
	db := testkit.TinyDB()
	runDML(t, db, "INSERT INTO DEPT (name, dept_id) VALUES ('lab', 50)")
	got := runSQL(t, db, "SELECT dept_id, name FROM dept WHERE loc_id IS NULL AND dept_id = 50")
	if len(got) != 1 || got[0] != "50|'lab'" {
		t.Errorf("column-list insert = %v", got)
	}
	// NULL into a non-nullable unlisted column must fail.
	if _, err := tryDML(db, "INSERT INTO DEPT (dept_id) VALUES (70)"); err == nil {
		t.Error("insert leaving non-nullable NAME null should fail")
	}
	// Unknown column and arity mismatches are bind errors.
	if _, err := tryDML(db, "INSERT INTO DEPT (nope) VALUES (1)"); err == nil {
		t.Error("unknown target column should fail")
	}
	if _, err := tryDML(db, "INSERT INTO DEPT VALUES (1, 'x')"); err == nil {
		t.Error("arity mismatch should fail")
	}
}

func TestInsertParams(t *testing.T) {
	db := testkit.TinyDB()
	stmt, err := sql.ParseStatement("INSERT INTO DEPT VALUES (:id, :nm, NULL)")
	if err != nil {
		t.Fatal(err)
	}
	bound, err := qtree.BindStatement(stmt, db.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	dml := bound.(*qtree.DMLStmt)
	if len(dml.Params) != 2 {
		t.Fatalf("params = %v", dml.Params)
	}
	res, err := RunDML(context.Background(), db, dml, nil,
		[]datum.Datum{datum.NewInt(77), datum.NewString("park")}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Affected != 1 {
		t.Fatalf("affected = %d", res.Affected)
	}
	got := runSQL(t, db, "SELECT name FROM dept WHERE dept_id = 77")
	if len(got) != 1 || got[0] != "'park'" {
		t.Errorf("param insert = %v", got)
	}
}

func TestInsertSelect(t *testing.T) {
	db := testkit.TinyDB()
	res := runDML(t, db,
		"INSERT INTO DEPT SELECT dept_id + 100, name || '2', loc_id FROM dept WHERE dept_id <= 20")
	if res.Affected != 2 {
		t.Fatalf("affected = %d, want 2", res.Affected)
	}
	got := runSQL(t, db, "SELECT dept_id, name FROM dept WHERE dept_id > 100")
	if strings.Join(got, ",") != "110|'eng2',120|'ops2'" {
		t.Errorf("insert-select rows = %v", got)
	}
}

func TestUpdate(t *testing.T) {
	db := testkit.TinyDB()
	res := runDML(t, db, "UPDATE EMP SET salary = salary * 2 WHERE dept_id = 10")
	if res.Affected != 2 {
		t.Fatalf("affected = %d, want 2", res.Affected)
	}
	got := runSQL(t, db, "SELECT name, salary FROM emp WHERE dept_id = 10")
	if strings.Join(got, ",") != "'ann'|200,'bob'|400" {
		t.Errorf("after update: %v", got)
	}
	// Untouched rows keep their values; total row count is unchanged.
	if got := runSQL(t, db, "SELECT COUNT(*) FROM emp"); got[0] != "6" {
		t.Errorf("emp count after update = %v", got)
	}
}

func TestUpdateMultipleColumnsWithAlias(t *testing.T) {
	db := testkit.TinyDB()
	res := runDML(t, db, "UPDATE EMP e SET name = 'ANN', mgr_id = NULL WHERE e.emp_id = 1")
	if res.Affected != 1 {
		t.Fatalf("affected = %d", res.Affected)
	}
	got := runSQL(t, db, "SELECT name FROM emp WHERE emp_id = 1 AND mgr_id IS NULL")
	if len(got) != 1 || got[0] != "'ANN'" {
		t.Errorf("after multi-set update: %v", got)
	}
	if _, err := tryDML(db, "UPDATE EMP SET name = 'x', name = 'y'"); err == nil {
		t.Error("duplicate SET target should fail")
	}
}

func TestUpdateWithSubqueryPredicate(t *testing.T) {
	db := testkit.TinyDB()
	// The locating query runs through the full optimizer, subquery included.
	res := runDML(t, db,
		"UPDATE EMP SET salary = 0 WHERE dept_id IN (SELECT dept_id FROM dept WHERE name = 'ops')")
	if res.Affected != 2 {
		t.Fatalf("affected = %d, want 2", res.Affected)
	}
	if got := runSQL(t, db, "SELECT COUNT(*) FROM emp WHERE salary = 0"); got[0] != "2" {
		t.Errorf("zeroed rows = %v", got)
	}
}

func TestDelete(t *testing.T) {
	db := testkit.TinyDB()
	res := runDML(t, db, "DELETE FROM EMP WHERE salary < :cut", datum.NewFloat(150))
	if res.Affected != 2 { // ann (100) and dee (50)
		t.Fatalf("affected = %d, want 2", res.Affected)
	}
	got := runSQL(t, db, "SELECT name FROM emp")
	if strings.Join(got, ",") != "'bob','cal','eli','fay'" {
		t.Errorf("after delete: %v", got)
	}
}

func TestDeleteAll(t *testing.T) {
	db := testkit.TinyDB()
	res := runDML(t, db, "DELETE FROM EMP")
	if res.Affected != 6 {
		t.Fatalf("affected = %d, want 6", res.Affected)
	}
	if got := runSQL(t, db, "SELECT COUNT(*) FROM emp"); got[0] != "0" {
		t.Errorf("emp not empty: %v", got)
	}
	// Index scans see no ghosts either.
	if got := runSQL(t, db, "SELECT name FROM emp WHERE emp_id = 3"); len(got) != 0 {
		t.Errorf("index scan returned deleted row: %v", got)
	}
}

func TestDMLSnapshotConsistency(t *testing.T) {
	db := testkit.TinyDB()
	// A snapshot taken before a delete keeps serving the old rows through
	// the executor, on both engines.
	snap := db.Snapshot()
	runDML(t, db, "DELETE FROM EMP WHERE emp_id = 1")

	q := mustPlan(t, db, "SELECT COUNT(*) FROM emp")
	for _, rowExec := range []bool{false, true} {
		res, err := RunWith(context.Background(), db, q, Options{Snap: snap, RowExec: rowExec})
		if err != nil {
			t.Fatal(err)
		}
		if res.Rows[0][0].Int() != 6 {
			t.Errorf("rowExec=%v: snapshot count = %d, want 6", rowExec, res.Rows[0][0].Int())
		}
		res, err = RunWith(context.Background(), db, q, Options{RowExec: rowExec})
		if err != nil {
			t.Fatal(err)
		}
		if res.Rows[0][0].Int() != 5 {
			t.Errorf("rowExec=%v: fresh count = %d, want 5", rowExec, res.Rows[0][0].Int())
		}
	}
}

func mustPlan(t *testing.T, db *storage.DB, src string) *optimizer.Plan {
	t.Helper()
	q, err := qtree.BindSQL(src, db.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := optimizer.New(db.Catalog).Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func TestDMLWriteConflict(t *testing.T) {
	db := testkit.TinyDB()
	// Prepare two updates of the same row from the same snapshot by
	// committing a conflicting delete between read and commit. Simulate
	// with direct batches: statement-level behavior is covered above.
	snap := db.Snapshot()
	stmt, err := sql.ParseStatement("UPDATE EMP SET salary = 1 WHERE emp_id = 2")
	if err != nil {
		t.Fatal(err)
	}
	bound, err := qtree.BindStatement(stmt, db.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	dml := bound.(*qtree.DMLStmt)
	plan, err := optimizer.New(db.Catalog).Optimize(dml.Read)
	if err != nil {
		t.Fatal(err)
	}
	// Concurrent writer deletes the row first.
	runDML(t, db, "DELETE FROM EMP WHERE emp_id = 2")
	// Our update still reads the old snapshot, so it locates the dead row
	// and must fail with a write-write conflict at commit.
	_, err = RunDML(context.Background(), db, dml, plan, nil, Options{Snap: snap})
	if !errors.Is(err, storage.ErrWriteConflict) {
		t.Errorf("err = %v, want ErrWriteConflict", err)
	}
}

func TestSelectRejectsDMLAndViceVersa(t *testing.T) {
	db := testkit.TinyDB()
	if _, err := qtree.BindDMLSQL("SELECT name FROM emp", db.Catalog); err == nil {
		t.Error("BindDMLSQL should reject a query")
	}
	if _, err := sql.Parse("DELETE FROM EMP"); err == nil {
		t.Error("sql.Parse (SELECT-only) should reject DML")
	}
}

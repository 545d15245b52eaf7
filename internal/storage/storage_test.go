package storage

import (
	"testing"
	"testing/quick"

	"repro/internal/catalog"
	"repro/internal/datum"
)

func testTable(t *testing.T) *Table {
	t.Helper()
	meta := &catalog.Table{
		Name: "EMP",
		Cols: []catalog.Column{
			{Name: "EMP_ID", Type: datum.KInt},
			{Name: "DEPT_ID", Type: datum.KInt, Nullable: true},
			{Name: "SALARY", Type: datum.KFloat},
			{Name: "NAME", Type: datum.KString},
		},
		PrimaryKey: []int{0},
		Indexes: []*catalog.Index{
			{Name: "EMP_PK", Cols: []int{0}, Unique: true},
			{Name: "EMP_DEPT", Cols: []int{1}},
		},
	}
	rows := []struct {
		id   int64
		dept datum.Datum
		sal  float64
		name string
	}{
		{1, datum.NewInt(10), 100, "ann"},
		{2, datum.NewInt(20), 200, "bob"},
		{3, datum.NewInt(10), 300, "carl"},
		{4, datum.Null, 150, "dee"},
		{5, datum.NewInt(30), 250, "eli"},
		{6, datum.NewInt(20), 120, "fay"},
	}
	var vals [][]datum.Datum
	for _, r := range rows {
		vals = append(vals, []datum.Datum{datum.NewInt(r.id), r.dept, datum.NewFloat(r.sal), datum.NewString(r.name)})
	}
	return loadDB(t, meta, vals...).Table("EMP")
}

// loadDB creates meta in a fresh in-memory database, commits rows in one
// batch and finalizes the database.
func loadDB(t *testing.T, meta *catalog.Table, rows ...[]datum.Datum) *DB {
	t.Helper()
	db := NewDB(catalog.New())
	if _, err := db.CreateTable(meta); err != nil {
		t.Fatal(err)
	}
	b := db.NewBatch()
	for _, r := range rows {
		if err := b.Insert(meta.Name, r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Commit(b); err != nil {
		t.Fatal(err)
	}
	db.Finalize()
	return db
}

func TestInsertValidation(t *testing.T) {
	db := loadDB(t, &catalog.Table{
		Name: "T",
		Cols: []catalog.Column{
			{Name: "A", Type: datum.KInt},
			{Name: "B", Type: datum.KString, Nullable: true},
		},
	})
	b := db.NewBatch()
	if err := b.Insert("T", []datum.Datum{datum.NewInt(1)}); err == nil {
		t.Error("arity mismatch should error")
	}
	if err := b.Insert("T", []datum.Datum{datum.NewString("x"), datum.NewString("y")}); err == nil {
		t.Error("kind mismatch should error")
	}
	if err := b.Insert("T", []datum.Datum{datum.Null, datum.NewString("y")}); err == nil {
		t.Error("NULL in non-nullable column should error")
	}
	if err := b.Insert("T", []datum.Datum{datum.NewInt(1), datum.Null}); err != nil {
		t.Errorf("NULL in nullable column: %v", err)
	}
	if err := b.Insert("NOPE", []datum.Datum{datum.NewInt(1)}); err == nil {
		t.Error("insert into a missing table should error")
	}
	if b.Inserted() != 1 {
		t.Errorf("batch queued %d rows, want only the valid one", b.Inserted())
	}
}

func TestIntInFloatColumn(t *testing.T) {
	db := loadDB(t, &catalog.Table{Name: "T", Cols: []catalog.Column{{Name: "F", Type: datum.KFloat}}},
		[]datum.Datum{datum.NewInt(3)})
	if got := db.Table("T").Rows[0][0]; got.Kind() != datum.KFloat || got.Float() != 3 {
		t.Errorf("int in float column stored as %v (%s), want float 3", got, got.Kind())
	}
}

func TestEqualRange(t *testing.T) {
	tbl := testTable(t)
	idx := tbl.Index("EMP_DEPT")
	got := idx.EqualRange([]datum.Datum{datum.NewInt(20)})
	if len(got) != 2 {
		t.Fatalf("dept 20: got %d rows, want 2", len(got))
	}
	ids := map[int64]bool{}
	for _, rn := range got {
		ids[tbl.Rows[rn][0].Int()] = true
	}
	if !ids[2] || !ids[6] {
		t.Errorf("dept 20 rows = %v", ids)
	}
	if got := idx.EqualRange([]datum.Datum{datum.NewInt(99)}); len(got) != 0 {
		t.Errorf("missing key: got %d rows", len(got))
	}
	if got := idx.EqualRange([]datum.Datum{datum.Null}); len(got) != 0 {
		t.Errorf("NULL key must match nothing, got %d rows", len(got))
	}
}

func TestRangeScan(t *testing.T) {
	tbl := testTable(t)
	idx := tbl.Index("EMP_DEPT")
	// dept_id >= 20 — must exclude the NULL row.
	got := idx.Range(datum.NewInt(20), true, true, datum.Null, false, false)
	if len(got) != 3 {
		t.Fatalf("dept >= 20: got %d rows, want 3", len(got))
	}
	// dept_id < 20.
	got = idx.Range(datum.Null, false, false, datum.NewInt(20), false, true)
	if len(got) != 2 {
		t.Fatalf("dept < 20: got %d rows, want 2 (NULLs excluded)", len(got))
	}
	// 10 < dept_id <= 30.
	got = idx.Range(datum.NewInt(10), false, true, datum.NewInt(30), true, true)
	if len(got) != 3 {
		t.Fatalf("10 < dept <= 30: got %d rows, want 3", len(got))
	}
	// Unbounded both sides = all non-null.
	got = idx.Range(datum.Null, false, false, datum.Null, false, false)
	if len(got) != 5 {
		t.Fatalf("unbounded: got %d rows, want 5", len(got))
	}
}

func TestRangeMatchesLinearScan(t *testing.T) {
	// Property: index range scan result equals a naive filter.
	meta := &catalog.Table{
		Name: "R",
		Cols: []catalog.Column{{Name: "V", Type: datum.KInt, Nullable: true}},
		Indexes: []*catalog.Index{
			{Name: "R_V", Cols: []int{0}},
		},
	}
	f := func(vals []int16, loRaw, hiRaw int16) bool {
		rows := make([][]datum.Datum, len(vals))
		for i, v := range vals {
			rows[i] = []datum.Datum{datum.NewInt(int64(v))}
			if i%7 == 3 {
				rows[i][0] = datum.Null
			}
		}
		tbl := loadDB(t, meta, rows...).Table("R")
		lo, hi := int64(loRaw), int64(hiRaw)
		if lo > hi {
			lo, hi = hi, lo
		}
		got := tbl.Index("R_V").Range(datum.NewInt(lo), true, true, datum.NewInt(hi), true, true)
		want := 0
		for _, r := range tbl.Rows {
			if r[0].IsNull() {
				continue
			}
			v := r[0].Int()
			if v >= lo && v <= hi {
				want++
			}
		}
		return len(got) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAnalyze(t *testing.T) {
	tbl := testTable(t)
	st := Analyze(tbl)
	if st.RowCount != 6 {
		t.Errorf("RowCount = %d", st.RowCount)
	}
	dept := st.Col(1)
	if dept.NDV != 3 {
		t.Errorf("dept NDV = %d, want 3", dept.NDV)
	}
	if dept.NullCount != 1 {
		t.Errorf("dept NullCount = %d, want 1", dept.NullCount)
	}
	if dept.Min.Int() != 10 || dept.Max.Int() != 30 {
		t.Errorf("dept min/max = %v/%v", dept.Min, dept.Max)
	}
	sal := st.Col(2)
	if sal.NDV != 6 {
		t.Errorf("salary NDV = %d, want 6", sal.NDV)
	}
	total := int64(0)
	for _, b := range sal.Hist {
		total += b.Count
	}
	if total != 6 {
		t.Errorf("histogram covers %d rows, want 6", total)
	}
	// Out-of-range column ordinal yields zero stats, not a panic.
	if z := st.Col(99); z.NDV != 0 {
		t.Errorf("Col(99) = %+v", z)
	}
}

func TestDB(t *testing.T) {
	meta := &catalog.Table{
		Name: "DEPT",
		Cols: []catalog.Column{
			{Name: "DEPT_ID", Type: datum.KInt},
			{Name: "NAME", Type: datum.KString},
		},
		PrimaryKey: []int{0},
		Indexes:    []*catalog.Index{{Name: "DEPT_PK", Cols: []int{0}, Unique: true}},
	}
	db := loadDB(t, meta,
		[]datum.Datum{datum.NewInt(10), datum.NewString("eng")},
		[]datum.Datum{datum.NewInt(20), datum.NewString("ops")})
	tbl := db.Table("DEPT")

	if db.Table("dept") != tbl {
		t.Error("case-insensitive lookup failed")
	}
	if db.Table("nope") != nil {
		t.Error("missing table should be nil")
	}
	if st := meta.Stats(); st == nil || st.RowCount != 2 {
		t.Error("Finalize should analyze tables")
	}
	if tbl.Index("DEPT_PK") == nil {
		t.Error("Finalize should build indexes")
	}
	if _, err := db.CreateTable(meta); err == nil {
		t.Error("duplicate table should error")
	}
}

func TestCatalogHelpers(t *testing.T) {
	emp := testTable(t).Meta
	if emp.Ordinal("salary") != 2 {
		t.Error("Ordinal is case-insensitive")
	}
	if emp.Ordinal("nope") != -1 {
		t.Error("missing column ordinal")
	}
	if emp.RowidOrdinal() != 4 {
		t.Error("rowid ordinal follows declared columns")
	}
	if !emp.IsUniqueKey([]int{0}) {
		t.Error("PK should be unique key")
	}
	if !emp.IsUniqueKey([]int{0, 1}) {
		t.Error("superset of PK should be unique")
	}
	if emp.IsUniqueKey([]int{1}) {
		t.Error("dept_id is not unique")
	}
	if emp.IsUniqueKey(nil) {
		t.Error("empty set is not a unique key")
	}
	if emp.FindIndex([]int{1}) == nil {
		t.Error("index on dept_id should be found")
	}
	if emp.FindIndex([]int{2}) != nil {
		t.Error("no index on salary")
	}
}

func TestFuncRegistry(t *testing.T) {
	cat := catalog.New()
	if cat.Func("upper") == nil {
		t.Error("builtin UPPER missing")
	}
	sm := cat.Func("SLOW_MATCH")
	if sm == nil || !sm.Expensive {
		t.Error("SLOW_MATCH should be registered and expensive")
	}
	got, err := cat.Func("SUBSTR").Eval([]datum.Datum{
		datum.NewString("employees"), datum.NewInt(1), datum.NewInt(3),
	})
	if err != nil || got.Str() != "emp" {
		t.Errorf("SUBSTR = %v, %v", got, err)
	}
	got, err = cat.Func("MOD").Eval([]datum.Datum{datum.NewInt(7), datum.NewInt(3)})
	if err != nil || got.Int() != 1 {
		t.Errorf("MOD = %v, %v", got, err)
	}
	got, err = cat.Func("SLOW_MATCH").Eval([]datum.Datum{
		datum.NewString("hello world"), datum.NewString("world"),
	})
	if err != nil || !got.Bool() {
		t.Errorf("SLOW_MATCH = %v, %v", got, err)
	}
}

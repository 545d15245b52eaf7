package testkit

import (
	"repro/internal/catalog"
	"repro/internal/datum"
	"repro/internal/storage"
)

// TinyDB builds a minimal hand-checkable database used by transformation
// equivalence tests. It deliberately includes NULLs in join columns so
// null-sensitive transformations (NOT IN, set operators) are exercised.
//
//	DEPT: (10, eng, 1), (20, ops, 2), (30, hr, 1), (40, empty, NULL)
//	EMP:  6 rows; fay has a NULL dept_id, ann a NULL mgr_id
//	PROJ: projects with dept_id and budgets (dept 10 has two, 20 one)
func TinyDB() *storage.DB {
	l := &loader{db: storage.NewDB(catalog.New())}
	l.create(&catalog.Table{
		Name: "DEPT",
		Cols: []catalog.Column{
			{Name: "DEPT_ID", Type: datum.KInt},
			{Name: "NAME", Type: datum.KString},
			{Name: "LOC_ID", Type: datum.KInt, Nullable: true},
		},
		PrimaryKey: []int{0},
		Indexes:    []*catalog.Index{{Name: "DEPT_PK", Cols: []int{0}, Unique: true}},
	}, &catalog.Table{
		Name: "EMP",
		Cols: []catalog.Column{
			{Name: "EMP_ID", Type: datum.KInt},
			{Name: "NAME", Type: datum.KString},
			{Name: "DEPT_ID", Type: datum.KInt, Nullable: true},
			{Name: "SALARY", Type: datum.KFloat},
			{Name: "MGR_ID", Type: datum.KInt, Nullable: true},
		},
		PrimaryKey: []int{0},
		ForeignKeys: []catalog.ForeignKey{
			{Cols: []int{2}, RefTable: "DEPT", RefCols: []int{0}},
		},
		Indexes: []*catalog.Index{
			{Name: "EMP_PK", Cols: []int{0}, Unique: true},
			{Name: "EMP_DEPT", Cols: []int{2}},
		},
	}, &catalog.Table{
		Name: "PROJ",
		Cols: []catalog.Column{
			{Name: "PROJ_ID", Type: datum.KInt},
			{Name: "DEPT_ID", Type: datum.KInt, Nullable: true},
			{Name: "BUDGET", Type: datum.KFloat},
			{Name: "PNAME", Type: datum.KString},
		},
		PrimaryKey: []int{0},
		Indexes: []*catalog.Index{
			{Name: "PROJ_PK", Cols: []int{0}, Unique: true},
			{Name: "PROJ_DEPT", Cols: []int{1}},
		},
	})

	d := func(vals ...interface{}) []datum.Datum {
		out := make([]datum.Datum, len(vals))
		for i, v := range vals {
			switch x := v.(type) {
			case nil:
				out[i] = datum.Null
			case int:
				out[i] = datum.NewInt(int64(x))
			case float64:
				out[i] = datum.NewFloat(x)
			case string:
				out[i] = datum.NewString(x)
			}
		}
		return out
	}
	l.insert("DEPT", d(10, "eng", 1)...)
	l.insert("DEPT", d(20, "ops", 2)...)
	l.insert("DEPT", d(30, "hr", 1)...)
	l.insert("DEPT", d(40, "empty", nil)...)

	l.insert("EMP", d(1, "ann", 10, 100.0, nil)...)
	l.insert("EMP", d(2, "bob", 10, 200.0, 1)...)
	l.insert("EMP", d(3, "cal", 20, 300.0, 1)...)
	l.insert("EMP", d(4, "dee", 20, 50.0, 3)...)
	l.insert("EMP", d(5, "eli", 30, 250.0, 1)...)
	l.insert("EMP", d(6, "fay", nil, 150.0, 2)...)

	l.insert("PROJ", d(100, 10, 1000.0, "alpha")...)
	l.insert("PROJ", d(101, 10, 500.0, "beta")...)
	l.insert("PROJ", d(102, 20, 800.0, "gamma")...)
	l.insert("PROJ", d(103, nil, 300.0, "orphan")...)

	return l.mustFinish()
}

// ParamDB builds one table for bind-parameter tests: T(ID, GRP, VAL) with
// ids 0..19, GRP = ID mod 4 (indexed) and VAL = 1.5 * ID.
func ParamDB() *storage.DB {
	l := &loader{db: storage.NewDB(catalog.New())}
	l.create(&catalog.Table{
		Name: "T",
		Cols: []catalog.Column{
			{Name: "ID", Type: datum.KInt},
			{Name: "GRP", Type: datum.KInt},
			{Name: "VAL", Type: datum.KFloat},
		},
		PrimaryKey: []int{0},
		Indexes:    []*catalog.Index{{Name: "T_GRP", Cols: []int{1}}},
	})
	for i := 0; i < 20; i++ {
		l.insert("T", datum.NewInt(int64(i)), datum.NewInt(int64(i%4)), datum.NewFloat(float64(i)*1.5))
	}
	return l.mustFinish()
}

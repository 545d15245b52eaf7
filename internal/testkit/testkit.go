// Package testkit provides the HR/OE-style schema and deterministic sample
// data used by tests and examples throughout the repository. The schema
// mirrors the tables in the paper's examples: employees, departments,
// locations, job_history, jobs, sales and accounts.
package testkit

import (
	"fmt"
	"math/rand"

	"repro/internal/catalog"
	"repro/internal/datum"
	"repro/internal/storage"
)

// Sizes configures the number of rows per table.
type Sizes struct {
	Employees   int
	Departments int
	Locations   int
	JobHistory  int
	Jobs        int
	Sales       int
	Accounts    int
}

// SmallSizes is a compact configuration for unit tests.
func SmallSizes() Sizes {
	return Sizes{
		Employees:   200,
		Departments: 20,
		Locations:   8,
		JobHistory:  120,
		Jobs:        10,
		Sales:       300,
		Accounts:    60,
	}
}

// MediumSizes is for benchmarks where plan-quality differences must show in
// wall-clock time.
func MediumSizes() Sizes {
	return Sizes{
		Employees:   20000,
		Departments: 400,
		Locations:   40,
		JobHistory:  12000,
		Jobs:        50,
		Sales:       40000,
		Accounts:    2000,
	}
}

// Countries used by the locations table.
var Countries = []string{"US", "UK", "DE", "FR", "JP", "IN", "BR", "CA"}

// NewDB returns a fresh in-memory database loaded by Load.
func NewDB(sizes Sizes, seed int64) *storage.DB {
	db := storage.NewDB(catalog.New())
	if err := Load(db, sizes, seed); err != nil {
		panic(err)
	}
	return db
}

// Load creates the schema in db, which must not hold these tables yet,
// commits deterministic pseudo-random data of the given sizes (seeded by
// seed) and finalizes db: indexes and statistics. The rows and their heap
// order depend only on sizes and seed, whatever engine db runs on.
func Load(db *storage.DB, sizes Sizes, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	l := &loader{db: db}
	l.create(&catalog.Table{
		Name: "LOCATIONS",
		Cols: []catalog.Column{
			{Name: "LOC_ID", Type: datum.KInt},
			{Name: "CITY", Type: datum.KString},
			{Name: "COUNTRY_ID", Type: datum.KString},
		},
		PrimaryKey: []int{0},
		Indexes: []*catalog.Index{
			{Name: "LOC_PK", Cols: []int{0}, Unique: true},
			{Name: "LOC_COUNTRY", Cols: []int{2}},
		},
	}, &catalog.Table{
		Name: "DEPARTMENTS",
		Cols: []catalog.Column{
			{Name: "DEPT_ID", Type: datum.KInt},
			{Name: "DEPARTMENT_NAME", Type: datum.KString},
			{Name: "LOC_ID", Type: datum.KInt},
			{Name: "BUDGET", Type: datum.KFloat},
		},
		PrimaryKey: []int{0},
		ForeignKeys: []catalog.ForeignKey{
			{Cols: []int{2}, RefTable: "LOCATIONS", RefCols: []int{0}},
		},
		Indexes: []*catalog.Index{
			{Name: "DEPT_PK", Cols: []int{0}, Unique: true},
			{Name: "DEPT_LOC", Cols: []int{2}},
		},
	}, &catalog.Table{
		Name: "JOBS",
		Cols: []catalog.Column{
			{Name: "JOB_ID", Type: datum.KInt},
			{Name: "JOB_TITLE", Type: datum.KString},
			{Name: "MIN_SALARY", Type: datum.KFloat},
		},
		PrimaryKey: []int{0},
		Indexes: []*catalog.Index{
			{Name: "JOBS_PK", Cols: []int{0}, Unique: true},
		},
	}, &catalog.Table{
		Name: "EMPLOYEES",
		Cols: []catalog.Column{
			{Name: "EMP_ID", Type: datum.KInt},
			{Name: "EMPLOYEE_NAME", Type: datum.KString},
			{Name: "DEPT_ID", Type: datum.KInt, Nullable: true},
			{Name: "SALARY", Type: datum.KFloat},
			{Name: "MGR_ID", Type: datum.KInt, Nullable: true},
			{Name: "JOB_ID", Type: datum.KInt},
			{Name: "HIRE_DATE", Type: datum.KString},
		},
		PrimaryKey: []int{0},
		ForeignKeys: []catalog.ForeignKey{
			{Cols: []int{2}, RefTable: "DEPARTMENTS", RefCols: []int{0}},
			{Cols: []int{5}, RefTable: "JOBS", RefCols: []int{0}},
		},
		Indexes: []*catalog.Index{
			{Name: "EMP_PK", Cols: []int{0}, Unique: true},
			{Name: "EMP_DEPT", Cols: []int{2}},
			{Name: "EMP_JOB", Cols: []int{5}},
		},
	}, &catalog.Table{
		Name: "JOB_HISTORY",
		Cols: []catalog.Column{
			{Name: "EMP_ID", Type: datum.KInt},
			{Name: "JOB_ID", Type: datum.KInt},
			{Name: "JOB_TITLE", Type: datum.KString},
			{Name: "START_DATE", Type: datum.KString},
			{Name: "DEPT_ID", Type: datum.KInt},
		},
		ForeignKeys: []catalog.ForeignKey{
			{Cols: []int{0}, RefTable: "EMPLOYEES", RefCols: []int{0}},
		},
		Indexes: []*catalog.Index{
			{Name: "JH_EMP", Cols: []int{0}},
			{Name: "JH_START", Cols: []int{3}},
		},
	}, &catalog.Table{
		Name: "SALES",
		Cols: []catalog.Column{
			{Name: "SALE_ID", Type: datum.KInt},
			{Name: "EMP_ID", Type: datum.KInt},
			{Name: "DEPT_ID", Type: datum.KInt},
			{Name: "AMOUNT", Type: datum.KFloat},
			{Name: "COUNTRY_ID", Type: datum.KString},
			{Name: "STATE_ID", Type: datum.KString},
			{Name: "CITY_ID", Type: datum.KString},
		},
		PrimaryKey: []int{0},
		Indexes: []*catalog.Index{
			{Name: "SALES_PK", Cols: []int{0}, Unique: true},
			{Name: "SALES_EMP", Cols: []int{1}},
			{Name: "SALES_DEPT", Cols: []int{2}},
		},
	}, &catalog.Table{
		Name: "ACCOUNTS",
		Cols: []catalog.Column{
			{Name: "ACCT_ID", Type: datum.KString},
			{Name: "TIME", Type: datum.KInt},
			{Name: "BALANCE", Type: datum.KFloat},
			{Name: "CREATE_DATE", Type: datum.KString},
			{Name: "NOTES", Type: datum.KString},
		},
		Indexes: []*catalog.Index{
			{Name: "ACCT_ID_IX", Cols: []int{0}},
		},
	})

	for i := 0; i < sizes.Locations; i++ {
		l.insert("LOCATIONS",
			datum.NewInt(int64(i+1)),
			datum.NewString(fmt.Sprintf("city_%d", i+1)),
			datum.NewString(Countries[i%len(Countries)]),
		)
	}
	for i := 0; i < sizes.Departments; i++ {
		locations := int64(rng.Intn(max(sizes.Locations, 1)) + 1)
		l.insert("DEPARTMENTS",
			datum.NewInt(int64(i+1)),
			datum.NewString(fmt.Sprintf("dept_%d", i+1)),
			datum.NewInt(locations),
			datum.NewFloat(float64(rng.Intn(900000)+100000)),
		)
	}
	for i := 0; i < sizes.Jobs; i++ {
		l.insert("JOBS",
			datum.NewInt(int64(i+1)),
			datum.NewString(fmt.Sprintf("title_%d", i+1)),
			datum.NewFloat(float64(rng.Intn(5000)+2000)),
		)
	}
	for i := 0; i < sizes.Employees; i++ {
		dept := datum.NewInt(int64(rng.Intn(max(sizes.Departments, 1)) + 1))
		if rng.Intn(50) == 0 {
			dept = datum.Null // a few employees without a department
		}
		var mgr datum.Datum
		if i > 0 && rng.Intn(10) != 0 {
			mgr = datum.NewInt(int64(rng.Intn(i) + 1))
		}
		l.insert("EMPLOYEES",
			datum.NewInt(int64(i+1)),
			datum.NewString(fmt.Sprintf("emp_%d", i+1)),
			dept,
			datum.NewFloat(float64(rng.Intn(10000)+1000)),
			mgr,
			datum.NewInt(int64(rng.Intn(max(sizes.Jobs, 1))+1)),
			randDate(rng, 1990, 2005),
		)
	}
	for i := 0; i < sizes.JobHistory; i++ {
		l.insert("JOB_HISTORY",
			datum.NewInt(int64(rng.Intn(max(sizes.Employees, 1))+1)),
			datum.NewInt(int64(rng.Intn(max(sizes.Jobs, 1))+1)),
			datum.NewString(fmt.Sprintf("title_%d", rng.Intn(max(sizes.Jobs, 1))+1)),
			randDate(rng, 1995, 2004),
			datum.NewInt(int64(rng.Intn(max(sizes.Departments, 1))+1)),
		)
	}
	states := []string{"CA", "NY", "TX", "WA", "MA"}
	for i := 0; i < sizes.Sales; i++ {
		l.insert("SALES",
			datum.NewInt(int64(i+1)),
			datum.NewInt(int64(rng.Intn(max(sizes.Employees, 1))+1)),
			datum.NewInt(int64(rng.Intn(max(sizes.Departments, 1))+1)),
			datum.NewFloat(float64(rng.Intn(10000))/10),
			datum.NewString(Countries[rng.Intn(len(Countries))]),
			datum.NewString(states[rng.Intn(len(states))]),
			datum.NewString(fmt.Sprintf("city_%d", rng.Intn(40)+1)),
		)
	}
	for i := 0; i < sizes.Accounts; i++ {
		id := fmt.Sprintf("ACCT%03d", i%37)
		if i%37 == 0 {
			id = "ORCL"
		}
		l.insert("ACCOUNTS",
			datum.NewString(id),
			datum.NewInt(int64(i%24+1)),
			datum.NewFloat(float64(rng.Intn(100000))/100),
			randDate(rng, 2000, 2006),
			datum.NewString(fmt.Sprintf("note %d keyword%d", i, i%13)),
		)
	}

	return l.finish()
}

// loadBatchRows is how many rows one load commit carries. Staging a whole
// table, or the whole dataset, in one batch would hold a second copy of it
// in memory at the peak.
const loadBatchRows = 1024

// loader creates tables and commits rows into db through write batches of
// loadBatchRows rows. The first error sticks: later calls do nothing, and
// finish returns it.
type loader struct {
	db  *storage.DB
	b   *storage.WriteBatch
	err error
}

func (l *loader) create(schema ...*catalog.Table) {
	for _, meta := range schema {
		if l.err == nil {
			_, l.err = l.db.CreateTable(meta)
		}
	}
}

func (l *loader) insert(table string, vals ...datum.Datum) {
	if l.err != nil {
		return
	}
	if l.b == nil {
		l.b = l.db.NewBatch()
	}
	if l.err = l.b.Insert(table, vals); l.err == nil && l.b.Inserted() == loadBatchRows {
		l.flush()
	}
}

func (l *loader) flush() {
	if l.err == nil && l.b != nil {
		_, l.err = l.db.Commit(l.b)
	}
	l.b = nil
}

// finish commits the rows still staged and finalizes the database.
func (l *loader) finish() error {
	l.flush()
	if l.err != nil {
		return l.err
	}
	l.db.Finalize()
	return nil
}

// mustFinish is finish for the in-memory fixtures, which cannot fail.
func (l *loader) mustFinish() *storage.DB {
	if err := l.finish(); err != nil {
		panic(err)
	}
	return l.db
}

func randDate(rng *rand.Rand, yearLo, yearHi int) datum.Datum {
	y := yearLo + rng.Intn(yearHi-yearLo+1)
	m := rng.Intn(12) + 1
	d := rng.Intn(28) + 1
	return datum.NewString(fmt.Sprintf("%04d%02d%02d", y, m, d))
}

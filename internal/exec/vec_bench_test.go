package exec_test

import (
	"context"
	"testing"

	"repro/internal/exec"
	"repro/internal/optimizer"
	"repro/internal/qtree"
	"repro/internal/storage"
	"repro/internal/testkit"
)

// benchDB is shared across engine benchmarks (building the medium dataset
// dominates otherwise).
var benchDB *storage.DB

func getBenchDB(tb testing.TB) *storage.DB {
	if benchDB == nil {
		benchDB = testkit.NewDB(testkit.MediumSizes(), 1)
	}
	return benchDB
}

func benchEngines(b *testing.B, sql string) {
	db := getBenchDB(b)
	q := qtree.MustBind(sql, db.Catalog)
	plan, err := optimizer.New(db.Catalog).Optimize(q)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for _, eng := range []struct {
		name string
		opts exec.Options
	}{{"row", exec.Options{RowExec: true}}, {"batch", exec.Options{}}} {
		b.Run(eng.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := exec.RunWith(ctx, db, plan, eng.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkEngineScanFilter(b *testing.B) {
	benchEngines(b, `SELECT e.emp_id, e.salary FROM employees e
	 WHERE e.salary > 2000 AND e.salary + 500 < 90000`)
}

func BenchmarkEngineHashJoin(b *testing.B) {
	benchEngines(b, `SELECT e.employee_name, d.department_name FROM employees e, departments d
	 WHERE e.dept_id = d.dept_id AND e.salary > 2000`)
}

func BenchmarkEngineJoinAgg(b *testing.B) {
	benchEngines(b, `SELECT d.department_name, COUNT(*), AVG(e.salary) FROM employees e, departments d
	 WHERE e.dept_id = d.dept_id GROUP BY d.department_name`)
}

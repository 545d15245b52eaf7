// Set-operation and disjunction transformations: join factorization
// (Q14 -> Q15), MINUS/INTERSECT into anti/semijoin (§2.2.7, with the
// distinct-placement variants), and disjunction into UNION ALL (§2.2.8).
// Each transformation is shown with its cost effect and verified to
// preserve the result.
package main

import (
	"fmt"

	"repro/internal/exec"
	"repro/internal/optimizer"
	"repro/internal/qtree"
	"repro/internal/storage"
	"repro/internal/testkit"
	"repro/internal/transform"
)

func main() {
	db := testkit.NewDB(testkit.MediumSizes(), 1)

	fmt.Println("==== join factorization (Q14 -> Q15) ====")
	demo(db, `
SELECT d.department_name, e.employee_name
FROM employees e, departments d
WHERE e.dept_id = d.dept_id AND e.salary > 9000
UNION ALL
SELECT d.department_name, j.job_title
FROM job_history j, departments d
WHERE j.dept_id = d.dept_id AND j.start_date > '20040101'`,
		&transform.JoinFactorization{}, 1)

	fmt.Println("==== MINUS into antijoin, duplicates removed at the output ====")
	demo(db, `
SELECT e.dept_id FROM employees e WHERE e.salary > 3000
MINUS
SELECT s.dept_id FROM sales s WHERE s.amount > 900`,
		&transform.SetOpIntoJoin{}, 1)

	fmt.Println("==== MINUS into antijoin, duplicates removed at the input ====")
	demo(db, `
SELECT e.dept_id FROM employees e WHERE e.salary > 3000
MINUS
SELECT s.dept_id FROM sales s WHERE s.amount > 900`,
		&transform.SetOpIntoJoin{}, 2)

	fmt.Println("==== INTERSECT into semijoin ====")
	demo(db, `
SELECT e.dept_id FROM employees e WHERE e.salary > 9500
INTERSECT
SELECT s.dept_id FROM sales s WHERE s.amount > 950`,
		&transform.SetOpIntoJoin{}, 1)

	fmt.Println("==== disjunction into UNION ALL (both sides become index scans) ====")
	demo(db, `
SELECT e.employee_name FROM employees e
WHERE e.emp_id = 4321 OR e.dept_id = 17`,
		&transform.OrExpansion{}, 1)
}

// demo costs the query before and after applying variant v of the rule and
// verifies the result multiset size is unchanged.
func demo(db *storage.DB, sql string, rule transform.Rule, variant int) {
	before := qtree.MustBind(sql, db.Catalog)
	pb := optimizer.New(db.Catalog)
	planB, err := pb.Optimize(before)
	if err != nil {
		panic(err)
	}
	rowsBefore := countRows(db, planB)

	after := qtree.MustBind(sql, db.Catalog)
	objs := rule.Find(after)
	if len(objs) == 0 {
		fmt.Println("  (rule found no objects)")
		return
	}
	if err := rule.Apply(after, objs[0], variant); err != nil {
		fmt.Printf("  (not applicable: %v)\n", err)
		return
	}
	pa := optimizer.New(db.Catalog)
	planA, err := pa.Optimize(after)
	if err != nil {
		panic(err)
	}
	rowsAfter := countRows(db, planA)
	if rowsBefore != rowsAfter {
		panic(fmt.Sprintf("transformation changed the result: %d vs %d rows", rowsBefore, rowsAfter))
	}
	fmt.Printf("  before: cost %9.0f   after: cost %9.0f   (%d rows)\n",
		planB.Cost.Total, planA.Cost.Total, rowsBefore)
	fmt.Printf("  transformed: %s\n\n", after.SQL())
}

func countRows(db *storage.DB, plan *optimizer.Plan) int {
	r, err := exec.Run(db, plan)
	if err != nil {
		panic(err)
	}
	return len(r.Rows)
}

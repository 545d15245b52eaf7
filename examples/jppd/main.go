// Join predicate pushdown walk-through: the paper's Q12 -> Q13 and the
// juxtaposition with view merging (Q18) from §3.3.2. The framework costs
// three forms of a DISTINCT-view join — unchanged, merged, and with the
// join predicate pushed down (which removes the distinct and converts the
// join to a semijoin) — and picks the cheapest.
package main

import (
	"fmt"

	"repro/internal/cbqt"
	"repro/internal/exec"
	"repro/internal/optimizer"
	"repro/internal/qtree"
	"repro/internal/storage"
	"repro/internal/testkit"
	"repro/internal/transform"
)

func main() {
	db := testkit.NewDB(testkit.MediumSizes(), 1)

	// Q12 shape: a DISTINCT view over a large table joined to a small
	// outer row set.
	q12 := `
SELECT e1.employee_name, j.job_title
FROM employees e1, job_history j,
     (SELECT DISTINCT s.dept_id FROM sales s, departments d
      WHERE s.dept_id = d.dept_id AND s.amount > 500) v
WHERE e1.dept_id = v.dept_id AND e1.emp_id = j.emp_id AND
      e1.emp_id BETWEEN 200 AND 230`

	fmt.Println("==== juxtaposition: unchanged vs merged (Q18) vs JPPD (Q13) ====")
	rule := &transform.ViewStrategy{}
	labels := map[int]string{
		0: "state 0: keep the distinct view",
		1: "state 1: merge the view into the outer block (Q18)",
		2: "state 2: push join predicate down; distinct removed, semijoin (Q13)",
	}
	var rows0 int
	for v := 0; v <= 2; v++ {
		q := qtree.MustBind(q12, db.Catalog)
		if v > 0 {
			objs := rule.Find(q)
			if len(objs) == 0 {
				fmt.Println("  no view object found")
				return
			}
			if err := rule.Apply(q, objs[0], v); err != nil {
				fmt.Printf("  %-65s (not applicable: %v)\n", labels[v], err)
				continue
			}
		}
		p := optimizer.New(db.Catalog)
		plan, err := p.Optimize(q)
		if err != nil {
			fmt.Printf("  %-65s (error: %v)\n", labels[v], err)
			continue
		}
		n := mustRows(db, plan)
		if v == 0 {
			rows0 = n
		} else if n != rows0 {
			panic(fmt.Sprintf("variant %d changed the result: %d vs %d rows", v, n, rows0))
		}
		fmt.Printf("  %-65s cost = %9.0f (%d rows)\n", labels[v], plan.Cost.Total, n)
	}

	q := qtree.MustBind(q12, db.Catalog)
	o := cbqt.New(db.Catalog)
	res, err := o.Optimize(q)
	if err != nil {
		panic(err)
	}
	fmt.Printf("\nframework chose (cost %.0f):\n  %s\n", res.Plan.Cost.Total, res.Query.SQL())
	fmt.Println("\nfinal plan:")
	fmt.Println(optimizer.Explain(res.Plan))
}

func mustRows(db *storage.DB, plan *optimizer.Plan) int {
	r, err := exec.Run(db, plan)
	if err != nil {
		panic(err)
	}
	return len(r.Rows)
}

// Unnesting walk-through: the paper's Q1 -> Q10 -> Q11 chain, showing how
// the cost-based framework enumerates the state space — including the
// interleaving of view merging with unnesting (§3.3.1) — and why the same
// kind of subquery should sometimes stay nested (tuple iteration semantics
// with an index) and sometimes be unnested.
package main

import (
	"fmt"

	"repro/internal/cbqt"
	"repro/internal/optimizer"
	"repro/internal/qtree"
	"repro/internal/storage"
	"repro/internal/testkit"
	"repro/internal/transform"
)

func main() {
	db := testkit.NewDB(testkit.MediumSizes(), 1)

	// Case A: highly selective outer filter and an indexed correlation
	// column — TIS evaluates the subquery for a handful of departments,
	// so unnesting does not pay.
	selective := `
SELECT e1.employee_name FROM employees e1
WHERE e1.emp_id BETWEEN 100 AND 120 AND
      e1.salary > (SELECT AVG(e2.salary) FROM employees e2
                   WHERE e2.dept_id = e1.dept_id)`

	// Case B: broad filter and a correlation column with no index inside
	// the subquery — TIS rescans job_history per department; unnesting
	// into a group-by view wins decisively.
	broad := `
SELECT e1.employee_name FROM employees e1
WHERE e1.salary > 2000 AND
      e1.salary > (SELECT AVG(jb.min_salary) FROM job_history j, jobs jb
                   WHERE j.job_id = jb.job_id AND j.dept_id = e1.dept_id)`

	for _, c := range []struct{ name, sql string }{
		{"A: selective outer + indexed correlation", selective},
		{"B: broad outer + unindexed correlation", broad},
	} {
		fmt.Printf("==== case %s ====\n", c.name)
		showStateSpace(db, c.sql)
		fmt.Println()
	}
}

// showStateSpace costs every variant of the unnesting transformation by
// hand (exactly what the exhaustive search does internally), then shows
// the framework's decision.
func showStateSpace(db *storage.DB, sql string) {
	rule := &transform.UnnestSubquery{}
	labels := []string{
		"state 0: keep nested (tuple iteration semantics)",
		"state 1: unnest into a group-by inline view (Q10)",
		"state 2: unnest + merge the view, interleaved (Q11)",
	}
	base := qtree.MustBind(sql, db.Catalog)
	objs := rule.Find(base)
	if len(objs) == 0 {
		fmt.Println("  (no unnestable subquery)")
		return
	}
	for v := 0; v <= objs[0].Variants; v++ {
		q := qtree.MustBind(sql, db.Catalog)
		if v > 0 {
			if err := rule.Apply(q, rule.Find(q)[0], v); err != nil {
				fmt.Printf("  %-55s (not applicable: %v)\n", labels[v], err)
				continue
			}
		}
		p := optimizer.New(db.Catalog)
		plan, err := p.Optimize(q)
		if err != nil {
			fmt.Printf("  %-55s (error: %v)\n", labels[v], err)
			continue
		}
		fmt.Printf("  %-55s cost = %10.0f\n", labels[v], plan.Cost.Total)
	}

	// Now let the framework decide.
	q := qtree.MustBind(sql, db.Catalog)
	o := cbqt.New(db.Catalog)
	res, err := o.Optimize(q)
	if err != nil {
		panic(err)
	}
	fmt.Printf("  framework chose (cost %.0f, %d states):\n    %s\n",
		res.Plan.Cost.Total, res.Stats.StatesEvaluated, res.Query.SQL())
}

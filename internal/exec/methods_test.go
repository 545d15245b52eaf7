package exec

import (
	"context"
	"sort"
	"strings"
	"testing"

	"repro/internal/optimizer"
	"repro/internal/qtree"
	"repro/internal/storage"
	"repro/internal/testkit"
)

// planForced plans a query with a forced join method.
func planForced(t *testing.T, db *storage.DB, src string, m optimizer.JoinMethod) *optimizer.Plan {
	t.Helper()
	q, err := qtree.BindSQL(src, db.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	p := optimizer.New(db.Catalog)
	p.ForceJoin = &m
	plan, err := p.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// runForced runs a query with a forced join method, returning sorted rows
// and the number of joins using that method.
func runForced(t *testing.T, db *storage.DB, src string, m optimizer.JoinMethod) ([]string, int) {
	t.Helper()
	plan := planForced(t, db, src, m)
	used := 0
	optimizer.Walk(plan.Root, func(n optimizer.PlanNode) {
		if j, ok := n.(*optimizer.Join); ok && j.Method == m {
			used++
		}
	})
	res, err := Run(db, plan)
	if err != nil {
		t.Fatalf("run (%v): %v\n%s", m, err, optimizer.Explain(plan))
	}
	return sortedStrings(res), used
}

// sortedStrings renders result rows as sorted strings.
func sortedStrings(res *Result) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		parts := make([]string, len(r))
		for j, d := range r {
			parts[j] = d.String()
		}
		out[i] = strings.Join(parts, "|")
	}
	sort.Strings(out)
	return out
}

// TestJoinMethodsAgree forces each physical join method over the same
// queries and checks that both return identical row multisets.
func TestJoinMethodsAgree(t *testing.T) {
	db := testkit.TinyDB()
	queries := []string{
		// Inner equi-join with duplicates on both sides.
		`SELECT e.name, p.pname FROM emp e, proj p WHERE e.dept_id = p.dept_id`,
		// Join plus residual condition.
		`SELECT e.name, p.pname FROM emp e, proj p
		 WHERE e.dept_id = p.dept_id AND p.budget > e.salary`,
		// Three-way join.
		`SELECT e.name, d.name, p.pname FROM emp e, dept d, proj p
		 WHERE e.dept_id = d.dept_id AND p.dept_id = d.dept_id`,
	}
	for _, src := range queries {
		hash, nHash := runForced(t, db, src, optimizer.MethodHash)
		nl, _ := runForced(t, db, src, optimizer.MethodNL)
		if nHash == 0 {
			t.Fatalf("hash hint ignored: %s", src)
		}
		if strings.Join(hash, ";") != strings.Join(nl, ";") {
			t.Errorf("hash vs NL differ\nsql: %s\nhash: %v\nnl:   %v", src, hash, nl)
		}
	}
}

// TestSemiAntiMethodsAgree covers the semi/anti variants under hash and NL.
func TestSemiAntiMethodsAgree(t *testing.T) {
	db := testkit.TinyDB()
	queries := []string{
		`SELECT d.name FROM dept d WHERE EXISTS
		 (SELECT 1 FROM emp e WHERE e.dept_id = d.dept_id AND e.salary > 100)`,
		`SELECT d.name FROM dept d WHERE NOT EXISTS
		 (SELECT 1 FROM emp e WHERE e.dept_id = d.dept_id)`,
		`SELECT e.name FROM emp e WHERE e.dept_id NOT IN
		 (SELECT p.dept_id FROM proj p WHERE p.budget > 600)`,
	}
	for _, src := range queries {
		hash, _ := runForced(t, db, src, optimizer.MethodHash)
		nl, _ := runForced(t, db, src, optimizer.MethodNL)
		if strings.Join(hash, ";") != strings.Join(nl, ";") {
			t.Errorf("semi/anti hash vs NL differ\nsql: %s\nhash: %v\nnl:   %v", src, hash, nl)
		}
	}
}

// TestOuterJoinMethodsAgree covers left and full outer joins under both
// supported methods.
func TestOuterJoinMethodsAgree(t *testing.T) {
	db := testkit.TinyDB()
	queries := []string{
		`SELECT d.name, e.name FROM dept d LEFT OUTER JOIN emp e ON d.dept_id = e.dept_id`,
		`SELECT d.name, e.name FROM dept d FULL OUTER JOIN emp e
		 ON d.dept_id = e.dept_id AND e.salary > 150`,
	}
	for _, src := range queries {
		hash, nHash := runForced(t, db, src, optimizer.MethodHash)
		nl, _ := runForced(t, db, src, optimizer.MethodNL)
		if nHash == 0 {
			t.Fatalf("hash hint ignored: %s", src)
		}
		if strings.Join(hash, ";") != strings.Join(nl, ";") {
			t.Errorf("outer hash vs NL differ\nsql: %s\nhash: %v\nnl:   %v", src, hash, nl)
		}
	}
}

// TestJoinRowsOutliveNext: the rows a row-engine join emits are its
// consumer's to keep. Joins check candidate pairs on a reused scratch row,
// so an emitted pair must be a copy. With the join at the plan root, the
// row engine's result keeps every row as emitted; the batch engine copies
// rows into batches at once, so it is the reference.
func TestJoinRowsOutliveNext(t *testing.T) {
	PoisonDeadSlots(t)
	db := testkit.TinyDB()
	queries := []string{
		`SELECT e.name, p.pname FROM emp e, proj p
		 WHERE e.dept_id = p.dept_id AND p.budget > e.salary`,
		`SELECT d.name, e.name FROM dept d LEFT OUTER JOIN emp e ON d.dept_id = e.dept_id`,
		`SELECT d.name, e.name FROM dept d FULL OUTER JOIN emp e
		 ON d.dept_id = e.dept_id AND e.salary > 150`,
	}
	for _, m := range []optimizer.JoinMethod{optimizer.MethodHash, optimizer.MethodNL} {
		for _, src := range queries {
			plan := planForced(t, db, src, m)
			var top *optimizer.Join
			optimizer.Walk(plan.Root, func(n optimizer.PlanNode) {
				if j, ok := n.(*optimizer.Join); ok && top == nil {
					top = j
				}
			})
			if top == nil {
				t.Fatalf("no join in plan:\n%s", optimizer.Explain(plan))
			}
			plan.Root = top
			optimizer.MarkLive(plan) // the join's whole output is now the result
			rows, err := RunWith(context.Background(), db, plan, Options{RowExec: true})
			if err != nil {
				t.Fatal(err)
			}
			ref, err := Run(db, plan)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := sortedStrings(rows), sortedStrings(ref); strings.Join(got, ";") != strings.Join(want, ";") {
				t.Errorf("%v join: row engine %v, batch engine %v\nsql: %s", m, got, want, src)
			}
		}
	}
}

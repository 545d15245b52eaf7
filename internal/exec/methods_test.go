package exec

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/optimizer"
	"repro/internal/qtree"
	"repro/internal/storage"
	"repro/internal/testkit"
)

// runForced runs a query with a forced join method, returning sorted rows
// and the number of joins using that method.
func runForced(t *testing.T, db *storage.DB, src string, m optimizer.JoinMethod) ([]string, int) {
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
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		parts := make([]string, len(r))
		for j, d := range r {
			parts[j] = d.String()
		}
		out[i] = strings.Join(parts, "|")
	}
	sort.Strings(out)
	return out, used
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

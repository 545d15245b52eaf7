package qtree_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/cbqt"
	"repro/internal/qtree"
	"repro/internal/storage"
	"repro/internal/testkit"
	"repro/internal/transform"
)

// decisionCorpus is internal/cbqt's decision corpus: the Table 2 family at
// one to ten subqueries, the per-class texts of bench.AdhocCorpus for seeds
// 1 to 5, then the texts whose winners the heuristic re-pass reshapes.
func decisionCorpus() []string {
	var out []string
	for n := 1; n <= 10; n++ {
		out = append(out, bench.Table2FamilyQuery(n))
	}
	for seed := int64(1); seed <= 5; seed++ {
		out = append(out, bench.AdhocCorpus(seed)[4:]...)
	}
	return append(out,
		`SELECT d.department_name, l.city, e.employee_name FROM employees e, departments d, locations l
 WHERE e.dept_id = d.dept_id AND d.loc_id = l.loc_id AND e.salary > 9000
UNION ALL
SELECT d.department_name, l.city, s.country_id FROM sales s, departments d, locations l
 WHERE s.dept_id = d.dept_id AND d.loc_id = l.loc_id AND s.amount > 900`,
		`SELECT e.employee_name FROM employees e
 WHERE e.salary > (SELECT AVG(e2.salary) FROM employees e2, departments d2 WHERE e2.dept_id = d2.dept_id AND e2.dept_id = e.dept_id)
 AND e.dept_id = 4`,
		`SELECT e.emp_id FROM employees e INTERSECT SELECT s.emp_id FROM sales s`,
		`SELECT d.department_name, SUM(s.amount) FROM departments d, sales s
 WHERE d.dept_id = s.dept_id AND d.dept_id > 3 GROUP BY d.department_name`,
		`SELECT v.c FROM (SELECT e.dept_id, COUNT(*) c FROM employees e GROUP BY e.dept_id) v, departments d
 WHERE v.dept_id = d.dept_id AND d.dept_id = 3`)
}

// corpusTrees calls f on the bound tree, the tree after the heuristic
// phase, every state of every cost-based rule applied to a copy-on-write
// clone of that tree, and the optimized tree of each decision-corpus text,
// optimized against db.
func corpusTrees(t *testing.T, db *storage.DB, f func(where string, q *qtree.Query)) {
	t.Helper()
	for i, src := range decisionCorpus() {
		q := qtree.MustBind(src, db.Catalog)
		f(fmt.Sprintf("query %d bound", i), q)
		if err := transform.ApplyHeuristics(q); err != nil {
			t.Fatalf("query %d: heuristics: %v", i, err)
		}
		f(fmt.Sprintf("query %d heuristics", i), q)
		for _, r := range transform.CostBasedRules() {
			for _, o := range r.Find(q) {
				for v := 1; v <= o.Variants; v++ {
					clone := q.CloneCOW()
					if err := r.Apply(clone, o, v); err != nil {
						continue // inapplicable variant
					}
					f(fmt.Sprintf("query %d %s variant %d", i, r.Name(), v), clone)
				}
			}
		}
		res, err := (&cbqt.Optimizer{Cat: db.Catalog, Opts: cbqt.DefaultOptions()}).Optimize(qtree.MustBind(src, db.Catalog))
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		f(fmt.Sprintf("query %d optimized", i), res.Query)
	}
}

// TestExprChildrenMatchReference pins WalkExpr, RewriteExpr and the deep
// clone, built on one definition of an expression's children, against the
// per-type switches they replaced (export_test.go). Over every expression
// slot of every block of the decision corpus's bound, heuristic, per-state
// and optimized trees, on small and medium data:
//   - WalkExpr visits the reference's node sequence;
//   - RewriteExpr with an f that replaces nothing builds a tree Equal to the
//     reference's;
//   - CloneExpr builds the tree the reference builds, subquery blocks
//     included, with the same block and from IDs, and so does Query.Clone.
//
// A subquery in another's left operand is exempt from the clone check: the
// reference copied such a block with its source's from IDs.
func TestExprChildrenMatchReference(t *testing.T) {
	trees, exprs, subqs, exempt := 0, 0, 0, 0
	check := func(where string, q *qtree.Query) {
		t.Helper()
		trees++
		c, _ := q.Clone()
		ref := qtree.RefQueryClone(q)
		cf, cb := c.IDCounters()
		rf, rb := ref.IDCounters()
		if got, want := describeBlock(c.Root), describeBlock(ref.Root); got != want || cf != rf || cb != rb {
			t.Errorf("%s: Query.Clone builds\n%s\nthe reference\n%s", where, got, want)
		}
		q.Root.Walk(func(b *qtree.Block) bool {
			qtree.ExprSlots(b, func(p *qtree.Expr) {
				e := *p
				exprs++
				var got, want []qtree.Expr
				qtree.WalkExpr(e, func(x qtree.Expr) bool { got = append(got, x); return true })
				qtree.RefWalkExpr(e, func(x qtree.Expr) bool { want = append(want, x); return true })
				if !slices.Equal(got, want) {
					t.Errorf("%s block %d: WalkExpr visits %v, the reference %v", where, b.ID, got, want)
				}
				keep := func(qtree.Expr) qtree.Expr { return nil }
				if g, w := qtree.RewriteExpr(e, keep), qtree.RefRewriteExpr(e, keep); !qtree.Equal(g, w) {
					t.Errorf("%s block %d: RewriteExpr builds %v, the reference %v", where, b.ID, g, w)
				}
				nested := false
				qtree.WalkExpr(e, func(x qtree.Expr) bool {
					if s, ok := x.(*qtree.Subq); ok {
						subqs++
						nested = nested || slices.ContainsFunc(s.Left, qtree.ContainsSubq)
					}
					return true
				})
				if nested {
					exempt++
					return
				}
				dg, dw := qtree.NewQuery(q.Catalog), qtree.NewQuery(q.Catalog)
				g, w := qtree.CloneExpr(dg, e), qtree.RefCloneExpr(dw, e)
				gf, gb := dg.IDCounters()
				wf, wb := dw.IDCounters()
				if dg, dw := describeExpr(g), describeExpr(w); dg != dw || gf != wf || gb != wb {
					t.Errorf("%s block %d: CloneExpr builds\n%s\n(counters %d/%d), the reference\n%s\n(counters %d/%d)",
						where, b.ID, dg, gf, gb, dw, wf, wb)
				}
			})
			return true
		})
	}
	for _, db := range []*storage.DB{testkit.NewDB(testkit.SmallSizes(), 7), testkit.NewDB(testkit.MediumSizes(), 1)} {
		corpusTrees(t, db, check)
	}
	if trees < 400 || subqs == 0 {
		t.Fatalf("checked %d trees, %d expressions, %d subqueries; the sweep is not exercising the walks", trees, exprs, subqs)
	}
	t.Logf("%d trees, %d expressions, %d subqueries, %d exempt", trees, exprs, subqs, exempt)
}

// describeExpr renders e with raw from IDs, then each block of each of its
// subqueries' subtrees with its ID.
func describeExpr(e qtree.Expr) string {
	var sb strings.Builder
	sb.WriteString(e.String())
	qtree.WalkExpr(e, func(x qtree.Expr) bool {
		if s, ok := x.(*qtree.Subq); ok {
			sb.WriteString("\n" + describeBlock(s.Block))
		}
		return true
	})
	return sb.String()
}

// describeBlock renders each block of b's subtree with its ID and raw from
// IDs, in Walk order.
func describeBlock(b *qtree.Block) string {
	var lines []string
	b.Walk(func(blk *qtree.Block) bool {
		lines = append(lines, fmt.Sprintf("b%d %s", blk.ID, qtree.RawSQL(blk)))
		return true
	})
	return strings.Join(lines, "\n")
}

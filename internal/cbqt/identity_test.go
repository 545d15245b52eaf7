package cbqt_test

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/cbqt"
	"repro/internal/optimizer"
	"repro/internal/qtree"
	"repro/internal/testkit"
)

// ordinalRendering is e's raw rendering with every column's display name
// replaced by its ordinal: the reference qtree.Equal is checked against.
func ordinalRendering(e qtree.Expr) string {
	var rename func(x qtree.Expr) qtree.Expr
	rename = func(x qtree.Expr) qtree.Expr {
		switch v := x.(type) {
		case *qtree.Col:
			return &qtree.Col{From: v.From, Ord: v.Ord, Name: "#" + strconv.Itoa(v.Ord)}
		case *qtree.Subq:
			s := &qtree.Subq{Kind: v.Kind, Op: v.Op, Block: v.Block}
			for _, l := range v.Left {
				s.Left = append(s.Left, qtree.RewriteExpr(l, rename))
			}
			return s
		}
		return nil
	}
	return qtree.RewriteExpr(e, rename).String()
}

// treeExprs appends every expression node of q's tree, subexpressions and
// subquery left sides included.
func treeExprs(out []qtree.Expr, q *qtree.Query) []qtree.Expr {
	q.Root.Walk(func(b *qtree.Block) bool {
		b.VisitExprs(func(e qtree.Expr) {
			out = append(out, e)
			if s, ok := e.(*qtree.Subq); ok {
				for _, l := range s.Left {
					qtree.WalkExpr(l, func(x qtree.Expr) bool {
						out = append(out, x)
						return true
					})
				}
			}
		})
		return true
	})
	return out
}

// TestEqualMatchesOrdinalRendering: over every pair of expressions in the
// bound and the transformed trees of each decision-corpus text,
// qtree.Equal holds exactly when the raw renderings with column names
// replaced by ordinals are equal.
func TestEqualMatchesOrdinalRendering(t *testing.T) {
	db := testkit.NewDB(testkit.SmallSizes(), 7)
	o := &cbqt.Optimizer{Cat: db.Catalog, Opts: cbqt.DefaultOptions()}
	pairs, equal := 0, 0
	for i, src := range decisionCorpus() {
		exprs := treeExprs(nil, qtree.MustBind(src, db.Catalog))
		res, err := o.Optimize(qtree.MustBind(src, db.Catalog))
		if err != nil {
			t.Fatalf("%d: %v", i, err)
		}
		exprs = treeExprs(exprs, res.Query)
		keys := make([]string, len(exprs))
		for j, e := range exprs {
			keys[j] = ordinalRendering(e)
		}
		for a := range exprs {
			for b := a; b < len(exprs); b++ {
				pairs++
				got, want := qtree.Equal(exprs[a], exprs[b]), keys[a] == keys[b]
				if got != want {
					t.Fatalf("text %d: Equal(%s, %s) = %v, ordinal renderings %q and %q", i, exprs[a], exprs[b], got, keys[a], keys[b])
				}
				if got {
					equal++
				}
			}
		}
	}
	if equal == pairs || equal == 0 {
		t.Fatalf("%d of %d pairs equal: the corpus does not exercise both outcomes", equal, pairs)
	}
	t.Logf("%d of %d pairs equal", equal, pairs)
}

// TestViewAliasCaseSamePlan: a view output alias is display only. Spelt
// SAL or Sal, the DISTINCT view's query plans the same cost and row
// estimate, and its transformed tree filters e.SALARY > 5000 exactly once:
// move-around does not add a case-only duplicate of the outer conjunct, and
// merging the view does not append the inner conjunct beside the
// substituted outer one.
func TestViewAliasCaseSamePlan(t *testing.T) {
	db := testkit.NewDB(testkit.SmallSizes(), 7)
	var costs []optimizer.Cost
	for _, alias := range []string{"SAL", "Sal"} {
		src := "SELECT v.sal FROM (SELECT DISTINCT e.salary AS " + alias +
			" FROM employees e WHERE e.salary > 5000) v WHERE v.sal > 5000"
		res, err := (&cbqt.Optimizer{Cat: db.Catalog, Opts: cbqt.DefaultOptions()}).Optimize(qtree.MustBind(src, db.Catalog))
		if err != nil {
			t.Fatal(err)
		}
		if n := strings.Count(res.Query.SQL(), "e.SALARY > 5000"); n != 1 {
			t.Errorf("AS %s: e.SALARY > 5000 appears %d times in %s", alias, n, res.Query.SQL())
		}
		costs = append(costs, res.Plan.Cost)
	}
	if a, b := costs[0], costs[1]; a != b {
		t.Errorf("plan cost and rows differ by alias case: AS SAL %+v, AS Sal %+v", a, b)
	}
}

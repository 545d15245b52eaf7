package check

import (
	"testing"

	"repro/internal/qtree"
	"repro/internal/testkit"
	"repro/internal/transform"
	"repro/internal/workload"
)

// TestTreeWalkMatchesChecker cross-checks qtree's block traversal against
// the checker's own (forEachBlock), which shares no code with it: on every
// workload query, before and after the heuristics and under every variant
// of every cost-based rule applied to a copy-on-write clone, Walk must
// visit exactly the blocks forEachBlock visits, each once, and every
// block's OuterCols must name the from IDs of its column references minus
// its definitions and the set-operation output references (From 0), as the
// checker's walk computes them.
func TestTreeWalkMatchesChecker(t *testing.T) {
	db := testkit.NewDB(testkit.SmallSizes(), 7)
	s := testkit.SmallSizes()
	cfg := workload.DefaultConfig(19, 120, s.Employees, s.Departments, s.Jobs)
	cfg.RelevantFraction = 0.8
	trees, correlated := 0, 0
	check := func(id int, stage string, q *qtree.Query) {
		t.Helper()
		trees++
		want := map[*qtree.Block]bool{}
		forEachBlock(q.Root, map[*qtree.Block]bool{}, func(b *qtree.Block) { want[b] = true })
		var got []*qtree.Block
		q.Root.Walk(func(b *qtree.Block) bool {
			got = append(got, b)
			return true
		})
		if len(got) != len(want) {
			t.Errorf("query %d %s: Walk visited %d blocks, forEachBlock %d", id, stage, len(got), len(want))
		}
		for _, b := range got {
			if !want[b] {
				t.Errorf("query %d %s: Walk visited block %d, which forEachBlock does not reach", id, stage, b.ID)
			}
			outer := checkerOuterRefs(b)
			if len(outer) > 0 {
				correlated++
			}
			got := map[qtree.FromID]bool{}
			b.OuterCols(func(c *qtree.Col) { got[c.From] = true })
			if !sameIDs(got, outer) {
				t.Errorf("query %d %s: block %d OuterCols = %v, checker walk says %v",
					id, stage, b.ID, got, outer)
			}
		}
	}
	for _, wq := range workload.Generate(cfg) {
		q, err := qtree.BindSQL(wq.SQL, db.Catalog)
		if err != nil {
			t.Fatalf("query %d: bind: %v\nsql: %s", wq.ID, err, wq.SQL)
		}
		check(wq.ID, "bound", q)
		if err := transform.ApplyHeuristics(q); err != nil {
			t.Fatalf("query %d: heuristics: %v", wq.ID, err)
		}
		check(wq.ID, "heuristics", q)
		for _, r := range transform.CostBasedRules() {
			for _, o := range r.Find(q) {
				for v := 1; v <= o.Variants; v++ {
					clone := q.CloneCOW()
					if err := r.Apply(clone, o, v); err != nil {
						continue // inapplicable variant
					}
					check(wq.ID, r.Name(), clone)
				}
			}
		}
	}
	if trees < 200 || correlated == 0 {
		t.Fatalf("checked %d trees with %d correlated blocks; the sweep is not exercising the walk", trees, correlated)
	}
	// A false return prunes the subtree.
	q, err := qtree.BindSQL("SELECT e.emp_id FROM employees e WHERE EXISTS (SELECT 1 FROM departments d WHERE d.dept_id = e.dept_id)", db.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	visited := 0
	q.Root.Walk(func(*qtree.Block) bool {
		visited++
		return false
	})
	if visited != 1 {
		t.Fatalf("Walk returning false at the root visited %d blocks, want 1", visited)
	}
}

// checkerOuterRefs is the from IDs of Block.OuterCols computed through
// forEachBlock: the from IDs referenced in b's subtree (a subquery's left
// operands included) minus those defined there and minus 0, which names a
// set operation's output.
func checkerOuterRefs(b *qtree.Block) map[qtree.FromID]bool {
	refs, defs := map[qtree.FromID]bool{}, map[qtree.FromID]bool{}
	addCol := func(x qtree.Expr) bool {
		if c, ok := x.(*qtree.Col); ok && c.From != 0 {
			refs[c.From] = true
		}
		return true
	}
	forEachBlock(b, map[*qtree.Block]bool{}, func(blk *qtree.Block) {
		for _, f := range blk.From {
			defs[f.ID] = true
		}
		blk.VisitExprs(func(e qtree.Expr) {
			addCol(e)
			if sq, ok := e.(*qtree.Subq); ok {
				for _, l := range sq.Left {
					qtree.WalkExpr(l, addCol)
				}
			}
		})
	})
	for id := range defs {
		delete(refs, id)
	}
	return refs
}

func sameIDs(a, b map[qtree.FromID]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for id := range a {
		if !b[id] {
			return false
		}
	}
	return true
}

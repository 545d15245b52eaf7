package check

import (
	"testing"

	"repro/internal/datum"
	"repro/internal/optimizer"
	"repro/internal/qtree"
	"repro/internal/testkit"
)

// These tests hand-break well-formed trees one invariant at a time and
// assert the checker reports the right violation class. Every class in
// Classes() must have at least one failing case here (enforced by
// TestEveryClassHasNegativeCase), so a checker regression that silently
// stops detecting a defect family fails the suite.

// mustBind parses and binds SQL against the tiny demo schema.
func mustBind(t *testing.T, sql string) *qtree.Query {
	t.Helper()
	db := testkit.TinyDB()
	return qtree.MustBind(sql, db.Catalog)
}

// wantClass asserts vs contains cl and records the class as covered.
func wantClass(t *testing.T, vs Violations, cl Class) {
	t.Helper()
	coveredClasses[cl] = true
	if !vs.HasClass(cl) {
		t.Fatalf("violations %v\nwant class %q", vs, cl)
	}
}

// coveredClasses records which classes the negative tests exercised.
var coveredClasses = map[Class]bool{}

func TestNegativeUnresolvedColumn(t *testing.T) {
	t.Run("unknown from item", func(t *testing.T) {
		q := mustBind(t, "SELECT e.EMP_ID FROM EMP e")
		q.Root.Select[0].Expr.(*qtree.Col).From = 99
		wantClass(t, Query(q), ClassUnresolvedColumn)
	})
	t.Run("ordinal out of range", func(t *testing.T) {
		q := mustBind(t, "SELECT e.EMP_ID FROM EMP e")
		q.Root.Select[0].Expr.(*qtree.Col).Ord = 42
		wantClass(t, Query(q), ClassUnresolvedColumn)
	})
	t.Run("set-op sentinel outside set-op ORDER BY", func(t *testing.T) {
		q := mustBind(t, "SELECT e.EMP_ID FROM EMP e")
		q.Root.Select[0].Expr.(*qtree.Col).From = 0
		wantClass(t, Query(q), ClassUnresolvedColumn)
	})
	t.Run("derived table sees a sibling", func(t *testing.T) {
		// A non-lateral view body referencing a sibling from item is the
		// exact defect join predicate pushdown guards with Lateral.
		q := mustBind(t, "SELECT e.EMP_ID, v.N FROM EMP e, (SELECT d.NAME AS N FROM DEPT d) v")
		var view *qtree.Block
		var emp qtree.FromID
		for _, f := range q.Root.From {
			if f.View != nil {
				view = f.View
			} else {
				emp = f.ID
			}
		}
		view.Where = append(view.Where, &qtree.Bin{
			Op: qtree.OpEq,
			L:  &qtree.Col{From: view.From[0].ID, Ord: 0, Name: "DEPT_ID"},
			R:  &qtree.Col{From: emp, Ord: 2, Name: "DEPT_ID"},
		})
		wantClass(t, Query(q), ClassUnresolvedColumn)
	})
}

func TestNegativeParamOrdinal(t *testing.T) {
	t.Run("ordinal out of range", func(t *testing.T) {
		q := mustBind(t, "SELECT e.EMP_ID FROM EMP e WHERE e.DEPT_ID = :d")
		q.Root.Where[0].(*qtree.Bin).R.(*qtree.Param).Ord = 7
		wantClass(t, Query(q), ClassParamOrdinal)
	})
	t.Run("name disagrees with slot", func(t *testing.T) {
		q := mustBind(t, "SELECT e.EMP_ID FROM EMP e WHERE e.DEPT_ID = :d")
		q.Root.Where[0].(*qtree.Bin).R.(*qtree.Param).Name = ":other"
		wantClass(t, Query(q), ClassParamOrdinal)
	})
}

func TestNegativeTypeMismatch(t *testing.T) {
	t.Run("string plus number", func(t *testing.T) {
		q := mustBind(t, "SELECT e.NAME FROM EMP e")
		q.Root.Select[0].Expr = &qtree.Bin{
			Op: qtree.OpAdd,
			L:  &qtree.Col{From: q.Root.From[0].ID, Ord: 1, Name: "NAME"},
			R:  &qtree.Col{From: q.Root.From[0].ID, Ord: 0, Name: "EMP_ID"},
		}
		wantClass(t, Query(q), ClassTypeMismatch)
	})
	t.Run("string constant as predicate", func(t *testing.T) {
		q := mustBind(t, "SELECT e.EMP_ID FROM EMP e")
		q.Root.Where = append(q.Root.Where, &qtree.Const{Val: datum.NewString("x")})
		wantClass(t, Query(q), ClassTypeMismatch)
	})
	t.Run("incomparable IN subquery column", func(t *testing.T) {
		q := mustBind(t, "SELECT e.EMP_ID FROM EMP e WHERE e.DEPT_ID IN (SELECT d.DEPT_ID FROM DEPT d)")
		var sq *qtree.Subq
		qtree.WalkExpr(q.Root.Where[0], func(x qtree.Expr) bool {
			if v, ok := x.(*qtree.Subq); ok {
				sq = v
			}
			return true
		})
		sq.Block.Select[0].Expr.(*qtree.Col).Ord = 1 // NAME: string vs int
		wantClass(t, Query(q), ClassTypeMismatch)
	})
}

func TestNegativeArityMismatch(t *testing.T) {
	t.Run("IN left list vs subquery output", func(t *testing.T) {
		q := mustBind(t, "SELECT e.EMP_ID FROM EMP e WHERE e.DEPT_ID IN (SELECT d.DEPT_ID FROM DEPT d)")
		var sq *qtree.Subq
		qtree.WalkExpr(q.Root.Where[0], func(x qtree.Expr) bool {
			if v, ok := x.(*qtree.Subq); ok {
				sq = v
			}
			return true
		})
		sq.Block.Select = append(sq.Block.Select, qtree.SelectItem{
			Expr: &qtree.Col{From: sq.Block.From[0].ID, Ord: 1, Name: "NAME"},
		})
		wantClass(t, Query(q), ClassArityMismatch)
	})
	t.Run("set-operation branch arity", func(t *testing.T) {
		q := mustBind(t, "SELECT e.EMP_ID FROM EMP e UNION ALL SELECT d.DEPT_ID FROM DEPT d")
		child := q.Root.Set.Children[1]
		child.Select = append(child.Select, qtree.SelectItem{
			Expr: &qtree.Col{From: child.From[0].ID, Ord: 1, Name: "NAME"},
		})
		wantClass(t, Query(q), ClassArityMismatch)
	})
	t.Run("one-branch set operation", func(t *testing.T) {
		q := mustBind(t, "SELECT e.EMP_ID FROM EMP e UNION ALL SELECT d.DEPT_ID FROM DEPT d")
		q.Root.Set.Children = q.Root.Set.Children[:1]
		wantClass(t, Query(q), ClassArityMismatch)
	})
}

func TestNegativeDanglingLink(t *testing.T) {
	t.Run("nil query and root", func(t *testing.T) {
		wantClass(t, Query(nil), ClassDanglingLink)
		wantClass(t, Query(&qtree.Query{}), ClassDanglingLink)
	})
	t.Run("duplicate from identity", func(t *testing.T) {
		q := mustBind(t, "SELECT e.EMP_ID FROM EMP e, DEPT d")
		q.Root.From[1].ID = q.Root.From[0].ID
		wantClass(t, Query(q), ClassDanglingLink)
	})
	t.Run("from item with no source", func(t *testing.T) {
		q := mustBind(t, "SELECT e.EMP_ID FROM EMP e")
		q.Root.From[0].Table = nil
		wantClass(t, Query(q), ClassDanglingLink)
	})
	t.Run("nil subquery block", func(t *testing.T) {
		q := mustBind(t, "SELECT e.EMP_ID FROM EMP e WHERE EXISTS (SELECT 1 FROM DEPT d)")
		qtree.WalkExpr(q.Root.Where[0], func(x qtree.Expr) bool {
			if v, ok := x.(*qtree.Subq); ok {
				v.Block = nil
			}
			return true
		})
		wantClass(t, Query(q), ClassDanglingLink)
	})
	t.Run("view shared between two from items", func(t *testing.T) {
		q := mustBind(t, "SELECT v.N FROM (SELECT d.NAME AS N FROM DEPT d) v, EMP e")
		var view *qtree.Block
		for _, f := range q.Root.From {
			if f.View != nil {
				view = f.View
			}
		}
		for _, f := range q.Root.From {
			if f.View == nil {
				f.Table, f.View = nil, view
			}
		}
		wantClass(t, Query(q), ClassDanglingLink)
	})
}

func TestNegativeGrouping(t *testing.T) {
	t.Run("ungrouped select column", func(t *testing.T) {
		q := mustBind(t, "SELECT e.DEPT_ID FROM EMP e GROUP BY e.DEPT_ID")
		q.Root.Select[0].Expr.(*qtree.Col).Ord = 3 // SALARY: not a grouping key
		q.Root.Select[0].Expr.(*qtree.Col).Name = "SALARY"
		wantClass(t, Query(q), ClassGrouping)
	})
	t.Run("aggregate in WHERE", func(t *testing.T) {
		q := mustBind(t, "SELECT e.DEPT_ID FROM EMP e GROUP BY e.DEPT_ID")
		q.Root.Where = append(q.Root.Where, &qtree.Bin{
			Op: qtree.OpGt,
			L:  &qtree.Agg{Op: qtree.AggCount, Star: true},
			R:  &qtree.Const{Val: datum.NewInt(1)},
		})
		wantClass(t, Query(q), ClassGrouping)
	})
	t.Run("grouping-set index out of range", func(t *testing.T) {
		q := mustBind(t, "SELECT e.DEPT_ID FROM EMP e GROUP BY e.DEPT_ID")
		q.Root.GroupingSets = [][]int{{0}, {3}}
		wantClass(t, Query(q), ClassGrouping)
	})
	t.Run("nested aggregate", func(t *testing.T) {
		q := mustBind(t, "SELECT COUNT(e.EMP_ID) FROM EMP e")
		q.Root.Select[0].Expr.(*qtree.Agg).Arg = &qtree.Agg{
			Op: qtree.AggCount, Arg: &qtree.Col{From: q.Root.From[0].ID, Ord: 0},
		}
		wantClass(t, Query(q), ClassGrouping)
	})
}

func TestNegativeJoinOrder(t *testing.T) {
	t.Run("inner item with a join condition", func(t *testing.T) {
		q := mustBind(t, "SELECT e.EMP_ID FROM EMP e, DEPT d")
		q.Root.From[1].Cond = []qtree.Expr{&qtree.Bin{
			Op: qtree.OpEq,
			L:  &qtree.Col{From: q.Root.From[0].ID, Ord: 2, Name: "DEPT_ID"},
			R:  &qtree.Col{From: q.Root.From[1].ID, Ord: 0, Name: "DEPT_ID"},
		}}
		wantClass(t, Query(q), ClassJoinOrder)
	})
	t.Run("no anchor item", func(t *testing.T) {
		q := mustBind(t, "SELECT e.EMP_ID FROM EMP e, DEPT d")
		q.Root.From[0].Kind = qtree.JoinSemi
		q.Root.From[1].Kind = qtree.JoinAnti
		wantClass(t, Query(q), ClassJoinOrder)
	})
}

func TestNegativeContract(t *testing.T) {
	t.Run("arity change", func(t *testing.T) {
		q := mustBind(t, "SELECT e.EMP_ID, e.NAME FROM EMP e")
		pre := Summarize(q)
		q.Root.Select = q.Root.Select[:1]
		wantClass(t, CheckContract("subquery unnesting", pre, q), ClassContract)
	})
	t.Run("output type change", func(t *testing.T) {
		q := mustBind(t, "SELECT e.EMP_ID FROM EMP e")
		pre := Summarize(q)
		q.Root.Select[0].Expr = &qtree.Col{From: q.Root.From[0].ID, Ord: 1, Name: "NAME"}
		wantClass(t, CheckContract("subquery unnesting", pre, q), ClassContract)
	})
	t.Run("dropped table", func(t *testing.T) {
		q := mustBind(t, "SELECT e.EMP_ID FROM EMP e WHERE e.DEPT_ID IN (SELECT d.DEPT_ID FROM DEPT d)")
		pre := Summarize(q)
		qtree.WalkExpr(q.Root.Where[0], func(x qtree.Expr) bool {
			if v, ok := x.(*qtree.Subq); ok {
				v.Block.From = nil
			}
			return true
		})
		wantClass(t, CheckContract("subquery unnesting", pre, q), ClassContract)
	})
	t.Run("parameter list change", func(t *testing.T) {
		q := mustBind(t, "SELECT e.EMP_ID FROM EMP e WHERE e.DEPT_ID = :d")
		pre := Summarize(q)
		q.Params = append(q.Params, ":GHOST")
		wantClass(t, CheckContract("subquery unnesting", pre, q), ClassContract)
	})
	t.Run("outer join lost", func(t *testing.T) {
		q := mustBind(t, "SELECT e.EMP_ID FROM EMP e LEFT JOIN DEPT d ON e.DEPT_ID = d.DEPT_ID")
		pre := Summarize(q)
		for _, f := range q.Root.From {
			if f.Kind == qtree.JoinLeftOuter {
				f.Kind = qtree.JoinInner
				f.Cond = nil
			}
		}
		wantClass(t, CheckContract("subquery unnesting", pre, q), ClassContract)
	})
	t.Run("relaxed contract accepts its relaxation", func(t *testing.T) {
		q := mustBind(t, "SELECT e.EMP_ID FROM EMP e WHERE e.DEPT_ID IN (SELECT d.DEPT_ID FROM DEPT d)")
		pre := Summarize(q)
		qtree.WalkExpr(q.Root.Where[0], func(x qtree.Expr) bool {
			if v, ok := x.(*qtree.Subq); ok {
				v.Block.From = nil
			}
			return true
		})
		if vs := CheckContract("join factorization", pre, q); vs.HasClass(ClassContract) {
			t.Fatalf("MayRemoveTables contract rejected a removed table: %v", vs)
		}
	})
}

func TestNegativePlan(t *testing.T) {
	db := testkit.TinyDB()
	optimize := func(sql string) *optimizer.Plan {
		q := qtree.MustBind(sql, db.Catalog)
		p, err := optimizer.New(db.Catalog).Optimize(q)
		if err != nil {
			t.Fatalf("optimize: %v", err)
		}
		return p
	}
	t.Run("nil plan and root", func(t *testing.T) {
		wantClass(t, Plan(nil), ClassPlan)
		wantClass(t, Plan(&optimizer.Plan{}), ClassPlan)
	})
	t.Run("unresolvable column", func(t *testing.T) {
		p := optimize("SELECT e.EMP_ID FROM EMP e WHERE e.SALARY > 10")
		broke := false
		var walk func(n optimizer.PlanNode)
		walk = func(n optimizer.PlanNode) {
			for _, e := range nodeExprs(n) {
				qtree.WalkExpr(e, func(x qtree.Expr) bool {
					if c, ok := x.(*qtree.Col); ok {
						c.From = 99
						broke = true
					}
					return true
				})
			}
			for _, ch := range n.Children() {
				walk(ch)
			}
		}
		walk(p.Root)
		if !broke {
			t.Fatal("plan carried no column expression to break")
		}
		wantClass(t, Plan(p), ClassPlan)
	})
	t.Run("join key arity", func(t *testing.T) {
		// The small demo schema is big enough that this join plans as a
		// hash join with equality key lists.
		small := testkit.NewDB(testkit.SmallSizes(), 7)
		q := qtree.MustBind("SELECT d.DEPT_ID FROM DEPARTMENTS d, LOCATIONS l WHERE d.LOC_ID = l.LOC_ID", small.Catalog)
		p, err := optimizer.New(small.Catalog).Optimize(q)
		if err != nil {
			t.Fatalf("optimize: %v", err)
		}
		broke := false
		var walk func(n optimizer.PlanNode)
		walk = func(n optimizer.PlanNode) {
			if j, ok := n.(*optimizer.Join); ok && len(j.EqL) > 0 {
				j.EqR = j.EqR[:len(j.EqR)-1]
				broke = true
			}
			for _, ch := range n.Children() {
				walk(ch)
			}
		}
		walk(p.Root)
		if !broke {
			t.Skip("no hash join in this plan shape")
		}
		wantClass(t, Plan(p), ClassPlan)
	})
	t.Run("missing subplan", func(t *testing.T) {
		p := optimize("SELECT e.EMP_ID FROM EMP e WHERE e.SALARY > (SELECT MAX(x.SALARY) FROM EMP x WHERE x.DEPT_ID = e.DEPT_ID)")
		if len(p.Subplans) == 0 {
			t.Skip("subquery was unnested; no residual subplan to drop")
		}
		for sq := range p.Subplans {
			delete(p.Subplans, sq)
		}
		wantClass(t, Plan(p), ClassPlan)
	})
	t.Run("invalid cost", func(t *testing.T) {
		p := optimize("SELECT e.EMP_ID FROM EMP e")
		p.Cost.Total = -1
		wantClass(t, Plan(p), ClassPlan)
	})
}

// nodeExprs extracts the expression slots the plan checker inspects, for
// the mutation helpers above.
func nodeExprs(n optimizer.PlanNode) []qtree.Expr {
	switch v := n.(type) {
	case *optimizer.SeqScan:
		return v.Filter
	case *optimizer.IndexScan:
		out := append([]qtree.Expr{}, v.EqKeys...)
		return append(out, v.Filter...)
	case *optimizer.Filter:
		return v.Preds
	case *optimizer.Join:
		out := append([]qtree.Expr{}, v.EqL...)
		out = append(out, v.EqR...)
		return append(out, v.On...)
	case *optimizer.Project:
		return v.Exprs
	case *optimizer.Sort:
		return v.Keys
	}
	return nil
}

// TestEveryClassHasNegativeCase re-runs every negative test above as a
// subtest and then asserts each class in Classes() was exercised, so adding
// a violation class without a failing negative test fails the suite.
func TestEveryClassHasNegativeCase(t *testing.T) {
	for cl := range coveredClasses {
		delete(coveredClasses, cl)
	}
	for name, fn := range map[string]func(*testing.T){
		"unresolved-column": TestNegativeUnresolvedColumn,
		"param-ordinal":     TestNegativeParamOrdinal,
		"type-mismatch":     TestNegativeTypeMismatch,
		"arity-mismatch":    TestNegativeArityMismatch,
		"dangling-link":     TestNegativeDanglingLink,
		"grouping":          TestNegativeGrouping,
		"join-order":        TestNegativeJoinOrder,
		"contract":          TestNegativeContract,
		"plan":              TestNegativePlan,
		"aliasing":          TestNegativeAliasing,
		"dml":               TestNegativeDML,
	} {
		t.Run(name, fn)
	}
	for _, cl := range Classes() {
		if !coveredClasses[cl] {
			t.Errorf("violation class %q has no failing negative test", cl)
		}
	}
}

package cbqt

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/qtree"
	"repro/internal/storage"
	"repro/internal/testkit"
	"repro/internal/transform"
)

func mustBindDML(t *testing.T, db *storage.DB, src string) *qtree.DMLStmt {
	t.Helper()
	stmt, err := qtree.BindDMLSQL(src, db.Catalog)
	if err != nil {
		t.Fatalf("bind %q: %v", src, err)
	}
	return stmt
}

func TestOptimizeDMLPlansLocatingQuery(t *testing.T) {
	db := testkit.TinyDB()
	for _, src := range []string{
		"UPDATE EMP e SET SALARY = e.SALARY + 1 WHERE e.DEPT_ID = :d",
		"DELETE FROM EMP e WHERE e.SALARY < :floor",
		"INSERT INTO DEPT (DEPT_ID, NAME) SELECT e.EMP_ID, e.NAME FROM EMP e",
	} {
		stmt := mustBindDML(t, db, src)
		opts := DefaultOptions()
		opts.Check = true
		o := &Optimizer{Cat: db.Catalog, Opts: opts}
		res, err := o.OptimizeDML(context.Background(), stmt)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if res.Plan == nil {
			t.Fatalf("%s: no plan for the locating query", src)
		}
		if stmt.Read != res.Query {
			t.Fatalf("%s: statement not re-pointed at the transformed read query", src)
		}
	}
}

func TestOptimizeDMLValuesFormHasNoPlan(t *testing.T) {
	db := testkit.TinyDB()
	stmt := mustBindDML(t, db, "INSERT INTO DEPT (DEPT_ID, NAME) VALUES (:d, :n)")
	opts := DefaultOptions()
	opts.Check = true
	o := &Optimizer{Cat: db.Catalog, Opts: opts}
	res, err := o.OptimizeDML(context.Background(), stmt)
	if err != nil {
		t.Fatalf("VALUES form: %v", err)
	}
	if res.Plan != nil {
		t.Fatalf("VALUES form has no read query; got a plan")
	}
}

func TestOptimizeDMLInputSeamRejects(t *testing.T) {
	db := testkit.TinyDB()
	stmt := mustBindDML(t, db, "UPDATE EMP e SET SALARY = 0, MGR_ID = :m WHERE e.EMP_ID = :id")
	stmt.TargetCols[1] = stmt.TargetCols[0] // column assigned twice
	opts := DefaultOptions()
	opts.Check = true
	o := &Optimizer{Cat: db.Catalog, Opts: opts}
	if _, err := o.OptimizeDML(context.Background(), stmt); err == nil {
		t.Fatal("duplicate target column passed the input seam")
	} else {
		if !strings.Contains(err.Error(), "input") {
			t.Fatalf("rejection should name the input seam: %v", err)
		}
		vs, ok := IsCheckViolation(err)
		if !ok {
			t.Fatalf("error does not carry violations: %v", err)
		}
		if !hasClass(vs, check.ClassDML) {
			t.Fatalf("want a %s violation, got %v", check.ClassDML, vs)
		}
	}
}

func TestOptimizeDMLNilStatement(t *testing.T) {
	o := &Optimizer{Cat: testkit.TinyDB().Catalog, Opts: DefaultOptions()}
	if _, err := o.OptimizeDML(context.Background(), nil); err == nil {
		t.Fatal("nil statement accepted")
	}
}

func hasClass(vs check.Violations, cl check.Class) bool {
	for _, v := range vs {
		if v.Class == cl {
			return true
		}
	}
	return false
}

// rowidSwapRule models a defective transformation: structurally it is a
// legal rewrite (the query still type-checks — EMP_ID is an int column,
// just like the ROWID pseudo-column), but it silently breaks the DML
// contract the executor trusts blindly, turning employee IDs into row
// addresses. Registered in heuristic mode it applies on the pre-CBQT
// path, whose checks (the rule's contract, COW aliasing, the query) pass
// it because the output keeps its count and type: only the
// post-transformation DML seam knows the first output must be the ROWID,
// which is the gap that seam exists to close.
type rowidSwapRule struct{}

func (rowidSwapRule) Name() string { return "ROWID_SWAP" }

func (r rowidSwapRule) Find(q *qtree.Query) []transform.Object {
	if r.target(q) != nil {
		return []transform.Object{{Variants: 1, Block: q.Root}}
	}
	return nil
}

// target locates the root's first output when it is a from-item's ROWID
// pseudo-column; nil once the rule has fired (which terminates Find).
func (rowidSwapRule) target(q *qtree.Query) *qtree.Col {
	root := q.Root
	if root == nil || root.Set != nil || len(root.Select) == 0 {
		return nil
	}
	col, ok := root.Select[0].Expr.(*qtree.Col)
	if !ok {
		return nil
	}
	for _, f := range root.From {
		if f != nil && f.ID == col.From && f.Table != nil && col.Ord == f.Table.RowidOrdinal() {
			return col
		}
	}
	return nil
}

func (r rowidSwapRule) Apply(q *qtree.Query, o transform.Object, variant int) error {
	col := r.target(q)
	if col == nil {
		return fmt.Errorf("no ROWID output to swap")
	}
	// Rewrite a private copy of the root: q may be a copy-on-write clone
	// whose root is still the original query's.
	root := q.Mutable(q.Root)
	root.Select[0].Expr = &qtree.Col{From: col.From, Ord: 0, Name: "EMP_ID"}
	return nil
}

// swapThenPanicRule swaps like rowidSwapRule and then panics.
type swapThenPanicRule struct{ rowidSwapRule }

func (r swapThenPanicRule) Apply(q *qtree.Query, o transform.Object, variant int) error {
	if err := r.rowidSwapRule.Apply(q, o, variant); err != nil {
		return err
	}
	panic("ROWID_SWAP exploded after swapping")
}

func (rowidSwapRule) HeuristicVariant(q *qtree.Query, o transform.Object) int { return 1 }

// TestMalformedLocatingQueryRejectedAtPostSeam is the regression test for
// the fifth checker seam: a heuristic-mode transformation that rewrites an
// UPDATE's ROWID output into an ordinary column is caught by the
// post-transformation check.DML pass — and, with the checker disarmed, the
// same defect plans successfully, i.e. it would have reached the executor.
func TestMalformedLocatingQueryRejectedAtPostSeam(t *testing.T) {
	db := testkit.TinyDB()
	const src = "UPDATE EMP e SET SALARY = 0 WHERE e.DEPT_ID = :d"

	evil := func(armed bool) (Options, *qtree.DMLStmt) {
		opts := DefaultOptions()
		opts.Check = armed
		opts.Rules = []transform.Rule{rowidSwapRule{}}
		opts.RuleModes = map[string]RuleMode{"ROWID_SWAP": RuleHeuristic}
		return opts, mustBindDML(t, db, src)
	}

	t.Run("checker armed", func(t *testing.T) {
		opts, stmt := evil(true)
		o := &Optimizer{Cat: db.Catalog, Opts: opts}
		_, err := o.OptimizeDML(context.Background(), stmt)
		if err == nil {
			t.Fatal("broken locating query passed the post-transformation seam")
		}
		if !strings.Contains(err.Error(), "after transformation") {
			t.Fatalf("rejection should name the post-transformation seam: %v", err)
		}
		vs, ok := IsCheckViolation(err)
		if !ok {
			t.Fatalf("error does not carry violations: %v", err)
		}
		if !hasClass(vs, check.ClassDML) {
			t.Fatalf("want a %s violation, got %v", check.ClassDML, vs)
		}
	})

	t.Run("checker disarmed", func(t *testing.T) {
		opts, stmt := evil(false)
		o := &Optimizer{Cat: db.Catalog, Opts: opts}
		res, err := o.OptimizeDML(context.Background(), stmt)
		if err != nil {
			t.Fatalf("disarmed run failed for another reason: %v", err)
		}
		if res.Plan == nil {
			t.Fatal("disarmed run produced no plan")
		}
		// The defect survived planning: the first output is now EMP_ID.
		col, ok := stmt.Read.Root.Select[0].Expr.(*qtree.Col)
		if !ok || col.Ord != 0 {
			t.Fatalf("rule did not fire; first output %v", stmt.Read.Root.Select[0].Expr)
		}
	})

	// The heuristic-mode application works on a copy-on-write clone: when
	// it panics after swapping, the swap never reaches the locating query.
	t.Run("failed application discarded", func(t *testing.T) {
		opts, stmt := evil(true)
		opts.Rules = []transform.Rule{swapThenPanicRule{}}
		o := &Optimizer{Cat: db.Catalog, Opts: opts}
		res, err := o.OptimizeDML(context.Background(), stmt)
		if err != nil {
			t.Fatalf("a discarded application still reached a seam: %v", err)
		}
		if got := fmt.Sprint(res.Stats.QuarantinedRules); got != "[ROWID_SWAP]" {
			t.Fatalf("quarantined %s, want [ROWID_SWAP]", got)
		}
		if (rowidSwapRule{}).target(stmt.Read) == nil {
			t.Fatalf("the discarded swap leaked into the query: first output %v", stmt.Read.Root.Select[0].Expr)
		}
	})
}

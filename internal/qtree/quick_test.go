package qtree

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/datum"
)

// genExpr builds a random expression tree of bounded depth over columns of
// two pretend relations (IDs 1 and 2).
func genExpr(rng *rand.Rand, depth int) Expr {
	if depth <= 0 {
		switch rng.Intn(3) {
		case 0:
			return &Const{Val: datum.NewInt(int64(rng.Intn(100)))}
		case 1:
			return &Const{Val: datum.NewString(string(rune('a' + rng.Intn(26))))}
		default:
			return &Col{From: FromID(rng.Intn(2) + 1), Ord: rng.Intn(4), Name: "C"}
		}
	}
	switch rng.Intn(8) {
	case 0:
		ops := []BinOp{OpAdd, OpSub, OpMul, OpEq, OpLt, OpGe, OpAnd, OpOr, OpNullSafeEq}
		return &Bin{Op: ops[rng.Intn(len(ops))], L: genExpr(rng, depth-1), R: genExpr(rng, depth-1)}
	case 1:
		return &Not{E: genExpr(rng, depth-1)}
	case 2:
		return &IsNull{E: genExpr(rng, depth-1), Neg: rng.Intn(2) == 0}
	case 3:
		n := rng.Intn(3) + 1
		in := &InList{E: genExpr(rng, depth-1), Neg: rng.Intn(2) == 0}
		for i := 0; i < n; i++ {
			in.Vals = append(in.Vals, genExpr(rng, depth-1))
		}
		return in
	case 4:
		return &LNNVL{E: genExpr(rng, depth-1)}
	case 5:
		return &IsTrue{E: genExpr(rng, depth-1)}
	case 6:
		c := &Case{Else: genExpr(rng, depth-1)}
		for i := 0; i <= rng.Intn(2); i++ {
			c.Whens = append(c.Whens, CaseWhen{Cond: genExpr(rng, depth-1), Result: genExpr(rng, depth-1)})
		}
		return c
	default:
		return &Like{E: genExpr(rng, depth-1), Pattern: &Const{Val: datum.NewString("%x%")}, Neg: rng.Intn(2) == 0}
	}
}

func TestQuickCloneRendersIdentically(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := genExpr(rng, 4)
		q := NewQuery(nil)
		clone := CloneExpr(q, e)
		return e.String() == clone.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickIdentityRewritePreservesStructure(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := genExpr(rng, 4)
		r := RewriteExpr(e, func(Expr) Expr { return nil })
		return e.String() == r.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickCloneIsDeepForExprs(t *testing.T) {
	// Rewriting the clone never changes the original's rendering.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := genExpr(rng, 4)
		before := e.String()
		q := NewQuery(nil)
		clone := CloneExpr(q, e)
		_ = RewriteExpr(clone, func(x Expr) Expr {
			if _, ok := x.(*Col); ok {
				return &Const{Val: datum.Null}
			}
			return nil
		})
		return e.String() == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickRemapTranslatesAllRefs(t *testing.T) {
	// After cloning with a remap covering IDs 1 and 2, no reference to the
	// old IDs survives.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := genExpr(rng, 4)
		q := NewQuery(nil)
		r := &Remap{IDs: map[FromID]FromID{1: 101, 2: 102}, dst: q}
		clone := cloneExpr(e, r, true)
		ok := true
		WalkExpr(clone, func(x Expr) bool {
			if c, isCol := x.(*Col); isCol && (c.From == 1 || c.From == 2) {
				ok = false
			}
			return ok
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickSplitAndRoundTrip(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%5) + 1
		rng := rand.New(rand.NewSource(seed))
		var conjuncts []Expr
		for i := 0; i < n; i++ {
			// Comparisons only: no top-level ANDs inside the conjuncts.
			conjuncts = append(conjuncts, &Bin{
				Op: OpEq,
				L:  genLeaf(rng),
				R:  genLeaf(rng),
			})
		}
		split := SplitAnd(AndAll(conjuncts))
		if len(split) != n {
			return false
		}
		for i := range split {
			if split[i].String() != conjuncts[i].String() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func genLeaf(rng *rand.Rand) Expr {
	if rng.Intn(2) == 0 {
		return &Const{Val: datum.NewInt(int64(rng.Intn(50)))}
	}
	return &Col{From: FromID(rng.Intn(2) + 1), Ord: rng.Intn(4), Name: "C"}
}

// genQuery builds a random two-view query by hand (no catalog): the root
// block reads two inline views whose FromIDs are exactly the 1 and 2 that
// genExpr's columns reference, so every generated tree renders
// deterministically.
func genQuery(rng *rand.Rand) *Query {
	q := NewQuery(nil)
	q.Root = q.NewBlock()
	for i := 0; i < 2; i++ {
		v := q.NewBlock()
		for c := 0; c < 4; c++ {
			v.Select = append(v.Select, SelectItem{Expr: genLeaf(rng), Alias: fmt.Sprintf("C%d", c)})
		}
		q.Root.From = append(q.Root.From, &FromItem{ID: q.NewFromID(), Alias: fmt.Sprintf("v%d", i), View: v})
	}
	for i := 0; i <= rng.Intn(3); i++ {
		q.Root.Where = append(q.Root.Where, genExpr(rng, 2))
	}
	for c := 0; c < 2; c++ {
		q.Root.Select = append(q.Root.Select, SelectItem{Expr: genLeaf(rng), Alias: fmt.Sprintf("S%d", c)})
	}
	return q
}

func TestQuickCloneCOWRendersIdentically(t *testing.T) {
	// A fresh COW clone shares every block yet renders byte-identically,
	// and mutating the clone through MutableDeep never changes the base.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := genQuery(rng)
		before := q.SQL()
		c := q.CloneCOW()
		if c.SQL() != before {
			return false
		}
		root := c.MutableDeep(c.Root)
		root.Where = nil
		root.Distinct = true
		for _, fi := range root.From {
			fi.View.Select = fi.View.Select[:1]
		}
		return q.SQL() == before && q.CloneCOW().SQL() == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickCOWMaterializeIsIDTransparent(t *testing.T) {
	// Materializing every shared block keeps the identical Remap-free ID
	// space: block IDs, from IDs and the allocation counters all match the
	// base, so COW and full-clone searches enumerate the same states.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := genQuery(rng)
		c := q.CloneCOW()
		c.MutableDeep(c.Root)
		if c.nextFrom != q.nextFrom || c.nextBlk != q.nextBlk {
			return false
		}
		if c.Root.ID != q.Root.ID || len(c.Root.From) != len(q.Root.From) {
			return false
		}
		for i, fi := range c.Root.From {
			base := q.Root.From[i]
			if fi.ID != base.ID || fi.View.ID != base.View.ID {
				return false
			}
			// Fully materialized: no block of the clone is the base's.
			if fi.View == base.View {
				return false
			}
		}
		return c.Root != q.Root && c.SQL() == q.SQL()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickExprColsMatchesWalk(t *testing.T) {
	// ExprCols agrees with a manual walk.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := genExpr(rng, 4)
		got := map[FromID]bool{}
		ExprCols(e, func(c *Col) { got[c.From] = true })
		want := map[FromID]bool{}
		WalkExpr(e, func(x Expr) bool {
			if c, ok := x.(*Col); ok {
				want[c.From] = true
			}
			return true
		})
		if len(got) != len(want) {
			return false
		}
		for id := range want {
			if !got[id] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

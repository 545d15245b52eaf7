package optimizer

import (
	"testing"

	"repro/internal/qtree"
)

// joinMethods returns the methods of every join in the plan, top down.
func joinMethods(p *Plan) []JoinMethod {
	var out []JoinMethod
	Walk(p.Root, func(n PlanNode) {
		if j, ok := n.(*Join); ok {
			out = append(out, j.Method)
		}
	})
	return out
}

func optimizeForced(t *testing.T, src string, force *JoinMethod) *Plan {
	t.Helper()
	db := testDB(t)
	q, err := qtree.BindSQL(src, db.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	p := New(db.Catalog)
	p.ForceJoin = force
	plan, err := p.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestForceJoinMethod: a join-method hint wins wherever its method applies
// and the choice falls back to the cheapest method where it does not.
func TestForceJoinMethod(t *testing.T) {
	const equi = `SELECT e.emp_id, d.department_name FROM employees e, departments d WHERE e.dept_id = d.dept_id`
	const theta = `SELECT e.emp_id, d.department_name FROM employees e, departments d WHERE e.dept_id < d.dept_id`
	for _, m := range []JoinMethod{MethodHash, MethodNL} {
		got := joinMethods(optimizeForced(t, equi, &m))
		if len(got) != 1 || got[0] != m {
			t.Errorf("equi join forced to %s: got %v", m, got)
		}
	}
	// No equality predicate: hash does not apply, so forcing it falls back
	// to the unforced choice, nested loops.
	hash := MethodHash
	unforced := optimizeForced(t, theta, nil)
	forced := optimizeForced(t, theta, &hash)
	if got := joinMethods(forced); len(got) != 1 || got[0] != MethodNL {
		t.Errorf("theta join forced to hash: got %v, want the NL fallback", got)
	}
	if forced.Cost != unforced.Cost {
		t.Errorf("inapplicable hint changed the plan: cost %v, unforced %v", forced.Cost, unforced.Cost)
	}
}

// TestPickJoinTieOrder: on equal cost hash beats the index probe, which
// beats plain nested loops; a hint keeps the tie order among its
// method's candidates and is ignored when none of them applies.
func TestPickJoinTieOrder(t *testing.T) {
	nl, hash := MethodNL, MethodHash
	all := [numCands]bool{true, true, true}
	cases := []struct {
		name  string
		cost  [numCands]float64
		ok    [numCands]bool
		force *JoinMethod
		want  int
	}{
		{"all equal", [numCands]float64{5, 5, 5}, all, nil, candHash},
		{"probe and NL equal", [numCands]float64{5, 5, 5}, [numCands]bool{false, true, true}, nil, candProbe},
		{"only NL", [numCands]float64{1, 1, 5}, [numCands]bool{false, false, true}, nil, candNL},
		{"cheapest wins", [numCands]float64{5, 4, 3}, all, nil, candNL},
		{"forced NL, equal", [numCands]float64{1, 5, 5}, all, &nl, candProbe},
		{"forced NL, cheaper plain", [numCands]float64{1, 5, 4}, all, &nl, candNL},
		{"forced hash", [numCands]float64{9, 1, 1}, all, &hash, candHash},
		{"forced hash, inapplicable", [numCands]float64{0, 3, 2}, [numCands]bool{false, true, true}, &hash, candNL},
	}
	for _, c := range cases {
		if got := pickJoin(c.cost, c.ok, c.force); got != c.want {
			t.Errorf("%s: picked %d, want %d", c.name, got, c.want)
		}
	}
}

// TestJoinToBuildsOnlyStrictWinners: a candidate whose cost equals the
// incumbent's is not built, so the first plan found for a subset keeps its
// place on ties; a strictly cheaper one is.
func TestJoinToBuildsOnlyStrictWinners(t *testing.T) {
	db := testDB(t)
	q, err := qtree.BindSQL(`SELECT e.emp_id, d.department_name FROM employees e, departments d WHERE e.dept_id = d.dept_id`, db.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	p := New(db.Catalog)
	b := q.Root
	jb, err := p.newJoinBuilder(q, b, nil, b.Where, &Plan{Subplans: map[*qtree.Subq]*SubPlan{}})
	if err != nil {
		t.Fatal(err)
	}
	left := &dpEntry{node: jb.inputs[0].self, mask: 1}
	first := jb.joinTo(left, 1, nil)
	if first == nil {
		t.Fatal("no incumbent: the winner must be built")
	}
	if again := jb.joinTo(left, 1, first); again != nil {
		t.Errorf("equal-cost candidate replaced the incumbent: %s", again.Label())
	}
	cheaper := &SeqScan{}
	cheaper.cost = Cost{Total: first.Cost().Total * 0.99}
	if got := jb.joinTo(left, 1, cheaper); got != nil {
		t.Errorf("dearer candidate built: %s", got.Label())
	}
	dearer := &SeqScan{}
	dearer.cost = Cost{Total: first.Cost().Total * 1.01}
	got := jb.joinTo(left, 1, dearer)
	if got == nil || got.Cost() != first.Cost() || got.Label() != first.Label() {
		t.Errorf("strictly cheaper candidate not built the same way: %v, want %v", got, first)
	}
}

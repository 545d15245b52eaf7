package check

import (
	"testing"

	"repro/internal/qtree"
	"repro/internal/testkit"
	"repro/internal/transform"
	"repro/internal/workload"
)

// TestBoundWorkloadClean asserts the checker accepts every freshly bound
// workload query: the binder and the checker must agree on what a
// well-formed tree is, or every downstream state check would be noise.
func TestBoundWorkloadClean(t *testing.T) {
	db := testkit.NewDB(testkit.SmallSizes(), 7)
	s := testkit.SmallSizes()
	cfg := workload.DefaultConfig(11, 160, s.Employees, s.Departments, s.Jobs)
	cfg.RelevantFraction = 0.8
	for _, wq := range workload.Generate(cfg) {
		q, err := qtree.BindSQL(wq.SQL, db.Catalog)
		if err != nil {
			t.Fatalf("query %d: bind: %v\nsql: %s", wq.ID, err, wq.SQL)
		}
		if vs := Query(q); len(vs) != 0 {
			t.Errorf("query %d: %d violation(s) on the bound tree\nsql: %s\nfirst: %v",
				wq.ID, len(vs), wq.SQL, vs[0])
		}
	}
}

// TestHeuristicWorkloadClean runs the imperative transformation phase to a
// fixpoint on every workload query and checks the result: the heuristic
// rules must leave well-formed trees behind.
func TestHeuristicWorkloadClean(t *testing.T) {
	db := testkit.NewDB(testkit.SmallSizes(), 7)
	s := testkit.SmallSizes()
	cfg := workload.DefaultConfig(13, 160, s.Employees, s.Departments, s.Jobs)
	cfg.RelevantFraction = 0.8
	for _, wq := range workload.Generate(cfg) {
		q, err := qtree.BindSQL(wq.SQL, db.Catalog)
		if err != nil {
			t.Fatalf("query %d: bind: %v\nsql: %s", wq.ID, err, wq.SQL)
		}
		if err := transform.ApplyHeuristics(q); err != nil {
			t.Fatalf("query %d: heuristics: %v\nsql: %s", wq.ID, err, wq.SQL)
		}
		if vs := Query(q); len(vs) != 0 {
			t.Errorf("query %d: %d violation(s) after heuristics\nsql: %s\nfirst: %v",
				wq.ID, len(vs), wq.SQL, vs[0])
		}
	}
}

// TestTransformedStatesClean applies every variant of every cost-based
// transformation object (one at a time, on a fresh clone) to every
// workload query and checks each mutated tree plus its contract against
// the pre-state — the static analogue of the differential execution
// oracle, covering states the oracle never wins and thus never executes.
func TestTransformedStatesClean(t *testing.T) {
	db := testkit.NewDB(testkit.SmallSizes(), 7)
	s := testkit.SmallSizes()
	cfg := workload.DefaultConfig(17, 120, s.Employees, s.Departments, s.Jobs)
	cfg.RelevantFraction = 0.8
	applied := 0
	for _, wq := range workload.Generate(cfg) {
		q, err := qtree.BindSQL(wq.SQL, db.Catalog)
		if err != nil {
			t.Fatalf("query %d: bind: %v\nsql: %s", wq.ID, err, wq.SQL)
		}
		if err := transform.ApplyHeuristics(q); err != nil {
			t.Fatalf("query %d: heuristics: %v", wq.ID, err)
		}
		pre := Summarize(q)
		for _, r := range transform.CostBasedRules() {
			for obj, o := range r.Find(q) {
				for v := 1; v <= o.Variants; v++ {
					clone := q.CloneCOW()
					if err := r.Apply(clone, o, v); err != nil {
						continue // inapplicable variant
					}
					applied++
					if vs := Query(clone); len(vs) != 0 {
						t.Errorf("query %d, %s obj %d variant %d: %d violation(s)\nsql: %s\nfirst: %v",
							wq.ID, r.Name(), obj, v, len(vs), wq.SQL, vs[0])
					}
					if vs := CheckContract(r.Name(), pre, clone); len(vs) != 0 {
						t.Errorf("query %d, %s obj %d variant %d: contract: %v\nsql: %s",
							wq.ID, r.Name(), obj, v, vs[0], wq.SQL)
					}
				}
			}
		}
	}
	if applied < 60 {
		t.Fatalf("only %d transformation variants applied; the state sweep is not exercising the rules", applied)
	}
}

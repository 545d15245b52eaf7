package check

import (
	"testing"

	"repro/internal/optimizer"
	"repro/internal/qtree"
	"repro/internal/testkit"
	"repro/internal/transform"
	"repro/internal/workload"
)

// FuzzCheckerNeverPanics drives the full checker surface — Query,
// Summarize, CheckContract and Plan — over generator output: every
// workload query for the fuzzed seed, in bound, heuristically transformed
// and per-rule-mutated forms. The checker's contract is that it reports
// malformed trees instead of panicking on them, so any panic here is a
// checker bug regardless of what the generator produced.
func FuzzCheckerNeverPanics(f *testing.F) {
	for _, seed := range []int64{1, 7, 42, 1 << 40, -3} {
		f.Add(seed, uint8(12))
	}
	db := testkit.NewDB(testkit.SmallSizes(), 7)
	s := testkit.SmallSizes()
	f.Fuzz(func(t *testing.T, seed int64, n uint8) {
		cfg := workload.DefaultConfig(seed, int(n%32)+1, s.Employees, s.Departments, s.Jobs)
		cfg.RelevantFraction = 0.6
		for _, wq := range workload.Generate(cfg) {
			q, err := qtree.BindSQL(wq.SQL, db.Catalog)
			if err != nil {
				continue // generator emitted something the binder rejects
			}
			Query(q)
			pre := Summarize(q)
			if err := transform.ApplyHeuristics(q); err != nil {
				continue
			}
			Query(q)
			for _, r := range transform.CostBasedRules() {
				for _, o := range r.Find(q) {
					for v := 1; v <= o.Variants; v++ {
						clone := q.CloneCOW()
						if err := r.Apply(clone, o, v); err != nil {
							continue
						}
						Query(clone)
						CheckContract(r.Name(), pre, clone)
					}
				}
			}
			if plan, err := optimizer.New(db.Catalog).Optimize(q); err == nil {
				Plan(plan)
			}
		}
	})
}

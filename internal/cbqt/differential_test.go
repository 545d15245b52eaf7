package cbqt

import (
	"testing"

	"repro/internal/testkit"
	"repro/internal/workload"
)

// TestDifferentialOracle is the safety net for the search engine: a seeded
// sample of generated workload queries is optimized twice — cost-based
// transformation disabled entirely, and CBQT — each chosen plan is
// executed, and both must return identical (sorted) result rows. Any
// transformation or search bug that changes query semantics surfaces here
// as a row diff on real data.
func TestDifferentialOracle(t *testing.T) {
	db := testkit.NewDB(testkit.SmallSizes(), 7)
	s := testkit.SmallSizes()
	cfg := workload.DefaultConfig(11, 120, s.Employees, s.Departments, s.Jobs)
	// The paper's 8% relevant fraction would leave most samples as plain
	// SPJ; bias the oracle towards queries CBQT actually transforms.
	cfg.RelevantFraction = 0.7
	queries := workload.Generate(cfg)
	if len(queries) < 100 {
		t.Fatalf("generated only %d queries, want >= 100", len(queries))
	}

	for _, wq := range queries {
		off, _ := runCBQT(t, db, wq.SQL, disabledOptions())
		rows, res := runCBQT(t, db, wq.SQL, DefaultOptions())
		if !equalStrs(rows, off) {
			t.Errorf("query %d (%s): CBQT changed results (%d rows vs %d)\nsql: %s\ntransformed: %s",
				wq.ID, wq.Class, len(rows), len(off), wq.SQL, res.Query.SQL())
		}
	}
}

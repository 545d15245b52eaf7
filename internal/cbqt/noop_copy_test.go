package cbqt

import (
	"testing"

	"repro/internal/qtree"
	"repro/internal/testkit"
)

// TestNoOpSearchPerformsNoCopies is the regression test for the latent
// double-clone on the quarantine paths: the heuristic phase and the winner's
// application used to take a full defensive deep copy of the query before
// every rule so they could restore it on a fault. With copy-on-write clones that copying
// is deferred to the first materialization, so optimizing a query no rule
// can touch must perform zero deep clones AND zero block materializations —
// the whole run works on shared blocks. The cbqt suite never calls
// t.Parallel, so the process-wide qtree copy counters delta is this test's
// alone.
func TestNoOpSearchPerformsNoCopies(t *testing.T) {
	db := testkit.TinyDB()
	q := qtree.MustBind("SELECT e.NAME FROM EMP e WHERE e.SALARY > 10", db.Catalog)

	opts := DefaultOptions()
	full0, _, mat0 := qtree.CopyCounters()
	if _, err := (&Optimizer{Cat: db.Catalog, Opts: opts}).Optimize(q); err != nil {
		t.Fatal(err)
	}
	full1, _, mat1 := qtree.CopyCounters()

	if d := full1 - full0; d != 0 {
		t.Errorf("no-op optimization performed %d deep clones, want 0", d)
	}
	if d := mat1 - mat0; d != 0 {
		t.Errorf("no-op optimization materialized %d blocks, want 0", d)
	}
}

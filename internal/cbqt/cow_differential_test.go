package cbqt

import (
	"testing"

	"repro/internal/testkit"
	"repro/internal/workload"
)

// TestDifferentialCOW is the safety net for the copy-on-write state memo:
// every sampled workload query is optimized twice — once under the
// fullCloneStates test seam (a deep copy per state, the reference) and once
// with COW clones — and the two runs must agree exactly: same transformed
// query, same plan cost, same number of states evaluated, and row-for-row
// identical execution output. Any block-sharing bug that lets one state's rewrite leak
// into another state, the base query, or the winner surfaces here.
func TestDifferentialCOW(t *testing.T) {
	db := testkit.NewDB(testkit.SmallSizes(), 7)
	s := testkit.SmallSizes()
	cfg := workload.DefaultConfig(13, 120, s.Employees, s.Departments, s.Jobs)
	// Bias the sample towards queries CBQT actually transforms, as the
	// differential oracle does.
	cfg.RelevantFraction = 0.7
	queries := workload.Generate(cfg)
	if len(queries) < 100 {
		t.Fatalf("generated only %d queries, want >= 100", len(queries))
	}

	opts := DefaultOptions()

	t.Cleanup(func() { fullCloneStates = false })
	var bytesFull, bytesCOW int64
	for _, wq := range queries {
		fullCloneStates = true
		rowsFull, resFull := runCBQT(t, db, wq.SQL, opts)
		fullCloneStates = false
		rowsCOW, resCOW := runCBQT(t, db, wq.SQL, opts)
		bytesFull += resFull.Stats.MemoStateBytes
		bytesCOW += resCOW.Stats.MemoStateBytes

		if got, want := resCOW.Query.SQL(), resFull.Query.SQL(); got != want {
			t.Errorf("query %d (%s): COW chose a different transformed query\nsql: %s\ncow:        %s\nfull-clone: %s",
				wq.ID, wq.Class, wq.SQL, got, want)
		}
		if got, want := resCOW.Plan.Cost.Total, resFull.Plan.Cost.Total; got != want {
			t.Errorf("query %d (%s): COW winner cost %v != full-clone %v\nsql: %s",
				wq.ID, wq.Class, got, want, wq.SQL)
		}
		if got, want := resCOW.Stats.StatesEvaluated, resFull.Stats.StatesEvaluated; got != want {
			t.Errorf("query %d (%s): COW evaluated %d states, full-clone %d\nsql: %s",
				wq.ID, wq.Class, got, want, wq.SQL)
		}
		if !equalStrs(rowsCOW, rowsFull) {
			t.Errorf("query %d (%s): COW changed results (%d rows vs %d)\nsql: %s\ntransformed: %s",
				wq.ID, wq.Class, len(rowsCOW), len(rowsFull), wq.SQL, resCOW.Query.SQL())
		}
	}
	// What the memo is for: over the same states, COW clones hold at most half
	// the private tree bytes deep copies hold. The accounting is deterministic
	// (Stats.MemoStateBytes sums qtree.COWStats' bytes), so this is exact.
	if bytesCOW <= 0 || 2*bytesCOW > bytesFull {
		t.Errorf("COW states hold %d private tree bytes, full-clone states %d (ratio %.3f, want <= 0.5)",
			bytesCOW, bytesFull, float64(bytesCOW)/float64(bytesFull))
	}
}

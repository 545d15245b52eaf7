package exec

import (
	"context"
	"testing"

	"repro/internal/optimizer"
	"repro/internal/qtree"
	"repro/internal/testkit"
)

// TestBatchGrowSchedule pins the one growth rule every operator shares:
// minBatchRows first, times batchGrowth after each full fill, never past
// the limit, and no growth while fills stay short of capacity.
func TestBatchGrowSchedule(t *testing.T) {
	for _, tc := range []struct {
		limit int
		want  []int
	}{
		{1024, []int{16, 64, 256, 1024, 1024}},
		{1025, []int{16, 64, 256, 1024, 1025, 1025}},
		{100, []int{16, 64, 100, 100}},
		{16, []int{16, 16}},
		{3, []int{3, 3}},
	} {
		var b Batch
		for i, want := range tc.want {
			got := b.grow(2, tc.limit)
			if got != want || len(b.Cols[0]) != want || len(b.Cols[1]) != want || b.N != 0 || b.Sel != nil {
				t.Fatalf("limit %d fill %d: capacity %d (cols %d), N %d, want capacity %d and an empty batch",
					tc.limit, i, got, len(b.Cols[0]), b.N, want)
			}
			b.N = got // the operator filled it
		}
	}
	var b Batch
	for i := 0; i < 5; i++ {
		if got := b.grow(1, 1024); got != minBatchRows {
			t.Fatalf("fill %d after short fills: capacity %d, want %d", i, got, minBatchRows)
		}
		b.N = minBatchRows - 1
	}
}

// TestBatchCapacitySurvivesReopen re-opens one scan many times (what a
// join's inner side or a correlated subplan does to its child): the growth
// state lives on the operator's batch, so later opens start at the capacity
// the first one earned instead of climbing from minBatchRows again, and
// the column vectors are allocated once, not once per open.
func TestBatchCapacitySurvivesReopen(t *testing.T) {
	sizes := testkit.SmallSizes()
	sizes.Employees = 300
	db := testkit.NewDB(sizes, 1)
	q := qtree.MustBind(`SELECT e.emp_id FROM employees e`, db.Catalog)
	plan, err := optimizer.New(db.Catalog).Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	proj, ok := plan.Root.(*optimizer.Project)
	if !ok {
		t.Fatalf("plan root is %T, want a projection over the scan", plan.Root)
	}
	scan, ok := proj.Child.(*optimizer.SeqScan)
	if !ok {
		t.Fatalf("projection child is %T, want a sequential scan", proj.Child)
	}
	e := newEnv(context.Background(), db, plan)
	e.applyOptions(Options{})
	it := newBatchSeqScan(e, scan)

	drain := func() (batches, rows, firstCap int) {
		if err := it.Open(nil); err != nil {
			t.Fatal(err)
		}
		defer it.Close()
		for {
			b, err := it.NextBatch()
			if err != nil {
				t.Fatal(err)
			}
			if b == nil {
				return batches, rows, firstCap
			}
			if batches == 0 {
				firstCap = len(b.Cols[0])
			}
			batches++
			rows += b.Rows()
		}
	}
	// 300 rows: 16 + 64 + 220 of 256 on the first open.
	if batches, rows, first := drain(); batches != 3 || rows != 300 || first != minBatchRows {
		t.Fatalf("first open: %d batches, %d rows, first capacity %d; want 3, 300, %d", batches, rows, first, minBatchRows)
	}
	// Second open: 256 (kept) + 44 of 1024. From then on the vectors are
	// final: every later open must reuse them.
	if batches, rows, first := drain(); batches != 2 || rows != 300 || first != 256 {
		t.Fatalf("second open: %d batches, %d rows, first capacity %d; want 2, 300, 256", batches, rows, first)
	}
	vec := &it.b.Cols[0][0]
	for open := 3; open <= 50; open++ {
		if batches, rows, first := drain(); batches != 1 || rows != 300 || first != DefaultBatchSize {
			t.Fatalf("open %d: %d batches, %d rows, first capacity %d; want 1, 300, %d",
				open, batches, rows, first, DefaultBatchSize)
		}
		if &it.b.Cols[0][0] != vec {
			t.Fatalf("open %d reallocated the scan's column vectors", open)
		}
	}
}

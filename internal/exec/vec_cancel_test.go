package exec

import (
	"context"
	"errors"
	"testing"

	"repro/internal/optimizer"
	"repro/internal/qtree"
	"repro/internal/testkit"
	"repro/internal/testkit/leakcheck"
)

// TestBatchCancellationLatency pins the batch engine's cancellation bound:
// the context is polled once per batch, so a cancel between two NextBatch
// calls on a large scan must surface on the very next call — the engine
// never produces another full batch, let alone drains the table. leakcheck.Check
// confirms the canceled execution leaves no goroutines behind.
func TestBatchCancellationLatency(t *testing.T) {
	leakcheck.Check(t)
	sizes := testkit.SmallSizes()
	sizes.Employees = 20000 // many batches ahead when the cancel lands
	db := testkit.NewDB(sizes, 1)
	q := qtree.MustBind(`SELECT e.emp_id, e.salary FROM employees e WHERE e.salary > 0`, db.Catalog)
	plan, err := optimizer.New(db.Catalog).Optimize(q)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e := newEnv(ctx, db, plan)
	e.applyOptions(Options{})
	it, err := buildBatch(e, plan.Root)
	if err != nil {
		t.Fatal(err)
	}
	if err := it.Open(nil); err != nil {
		t.Fatal(err)
	}
	defer it.Close()

	b, err := it.NextBatch()
	if err != nil || b == nil {
		t.Fatalf("first batch: %v (batch=%v)", err, b)
	}
	if b.Rows() == 0 || b.Rows() > e.batchSize {
		t.Fatalf("first batch carries %d rows, want 1..%d", b.Rows(), e.batchSize)
	}

	cancel()
	if _, err := it.NextBatch(); err == nil {
		t.Fatal("NextBatch after cancel returned a batch; cancellation latency exceeds one batch")
	} else if !errors.Is(err, context.Canceled) {
		t.Fatalf("NextBatch after cancel: %v, want a context.Canceled chain", err)
	}
}

// TestBatchCancelBeforeRun is the black-box variant: RunWith under an
// already-canceled context fails without producing rows on both engines.
func TestBatchCancelBeforeRun(t *testing.T) {
	leakcheck.Check(t)
	db := testkit.NewDB(testkit.SmallSizes(), 1)
	q := qtree.MustBind(`SELECT e.emp_id FROM employees e`, db.Catalog)
	plan, err := optimizer.New(db.Catalog).Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, opts := range []Options{{}, {RowExec: true}} {
		if res, err := RunWith(ctx, db, plan, opts); err == nil {
			t.Errorf("RunWith(RowExec=%v) under canceled context returned %d rows, want error",
				opts.RowExec, len(res.Rows))
		} else if !errors.Is(err, context.Canceled) {
			t.Errorf("RunWith(RowExec=%v): %v, want a context.Canceled chain", opts.RowExec, err)
		}
	}
}

package bench

import (
	"context"
	"testing"
	"time"

	"repro/internal/cbqt"
	"repro/internal/faultinject"
	"repro/internal/testkit"
)

// TestOverloadShedsNotQueues is the acceptance test for the overload
// experiment: at 16x capacity the server must shed (typed OVERLOADED, shed
// rate > 0) rather than queue unboundedly, and the p95 latency of the
// queries it does admit must stay within 2x of the 1x baseline. A
// deterministic optimizer delay makes service times uniform so the bound
// is about admission behavior, not workload variance.
func TestOverloadShedsNotQueues(t *testing.T) {
	db := testkit.NewDB(testkit.SmallSizes(), 1)
	opts := cbqt.DefaultOptions()
	// Service time must dominate scheduler and race-detector overhead, and
	// QueueWait must be a small fraction of it, so the 2x bound on admitted
	// latency holds by construction rather than by luck. A single moderate
	// query keeps service near uniform.
	opts.Faults = faultinject.New(faultinject.Fault{
		Site: "heuristics", Kind: faultinject.KindDelay, Delay: 10 * time.Millisecond,
	})

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := Overload(ctx, OverloadConfig{
		DB: db, Opts: opts,
		MaxInflight: 2, MaxQueue: 2, QueueWait: 12 * time.Millisecond, Workers: 24,
		Queries:       []string{Table2FamilyQuery(3) + " AND e.emp_id <= 3"},
		Multipliers:   []float64{1, 16},
		PointDuration: 800 * time.Millisecond,
		Seed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res)

	if res.CapacityQPS <= 0 {
		t.Fatalf("calibration measured no capacity: %+v", res)
	}
	if len(res.Points) != 2 {
		t.Fatalf("got %d points, want 2", len(res.Points))
	}
	base, top := res.point(1), res.point(16)
	if base == nil || top == nil {
		t.Fatalf("missing points: %+v", res.Points)
	}
	for _, p := range res.Points {
		if p.Completed == 0 {
			t.Fatalf("%gx completed nothing: %+v", p.Multiplier, p)
		}
		if p.Failed > 0 {
			t.Fatalf("%gx had %d untyped failures; overload must be typed shedding", p.Multiplier, p.Failed)
		}
	}

	// Past capacity the gate sheds — the defining property of admission
	// control versus an unbounded queue.
	if top.Shed == 0 {
		t.Fatalf("16x load shed nothing: %+v", top)
	}
	if top.ShedRate <= base.ShedRate {
		t.Fatalf("shed rate did not rise with load: 1x %.3f vs 16x %.3f", base.ShedRate, top.ShedRate)
	}

	// ...and because the queue in front of the slots is short and bounded
	// in time, the queries that are admitted still finish promptly.
	if base.P95 <= 0 {
		t.Fatalf("baseline p95 missing: %+v", base)
	}
	if top.P95 > 2*base.P95 {
		t.Fatalf("admitted p95 degraded %.2fx under 16x load (1x %v, 16x %v); bound is 2x",
			float64(top.P95)/float64(base.P95), base.P95, top.P95)
	}
}

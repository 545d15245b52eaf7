package plancache

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/obsv"
)

// TestStressInvalidateDuringCoalescedLoads models ANALYZE churn on a busy
// server: many goroutines resolve a small set of query keys through
// GetOrCompute (so misses coalesce) while a churn goroutine bumps the
// catalog version and invalidates everything older, over and over. The
// invariants: every load returns the value computed for exactly its own
// key (no cross-version bleed), neither Len nor the entries gauge ever
// exceeds the bound, and post-churn the cache still works.
func TestStressInvalidateDuringCoalescedLoads(t *testing.T) {
	reg := obsv.NewRegistry()
	const maxEntries = 64
	c := New(maxEntries, reg)

	const (
		workers    = 16
		iters      = 400
		sqls       = 24
		versionLag = 3 // readers run at most this many versions behind churn
	)
	var version atomic.Int64
	version.Store(1)
	var computes atomic.Int64

	stopChurn := make(chan struct{})
	var churnWG sync.WaitGroup
	churnWG.Add(1)
	go func() { // the ANALYZE loop
		defer churnWG.Done()
		for {
			select {
			case <-stopChurn:
				return
			default:
			}
			v := version.Add(1)
			c.Invalidate(v) // drop every plan older than the new version
		}
	}()

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				// Sessions read the version at plan time; the churner may
				// have moved on since, exactly like a real ANALYZE racing a
				// query's optimize span.
				v := version.Load() - int64(w%versionLag)
				if v < 1 {
					v = 1
				}
				k := Key{SQL: fmt.Sprintf("select %d", (w+i)%sqls), Strategy: "auto", Version: v}
				want := k.String()
				val, _, err := c.GetOrCompute(k, func() (any, error) {
					computes.Add(1)
					return want, nil
				})
				if err != nil {
					errs <- fmt.Errorf("worker %d iter %d: %v", w, i, err)
					return
				}
				if val != want {
					errs <- fmt.Errorf("worker %d iter %d: key %q resolved to %v (version bleed)", w, i, want, val)
					return
				}
				if got := c.Len(); got < 0 || got > maxEntries {
					errs <- fmt.Errorf("worker %d iter %d: Len() = %d outside [0, %d]", w, i, got, maxEntries)
					return
				}
				if got := reg.GaugeValue(MetricEntries); got < 0 || got > maxEntries {
					errs <- fmt.Errorf("worker %d iter %d: %s gauge = %d outside [0, %d]", w, i, MetricEntries, got, maxEntries)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stopChurn)
	churnWG.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// The churn must have actually collided with loads (otherwise this test
	// proves nothing): with invalidation racing, the same key is computed
	// far more often than the distinct-key count.
	if computes.Load() <= sqls {
		t.Fatalf("only %d computes for %d keys; churn never invalidated a live entry", computes.Load(), sqls)
	}
	if reg.CounterValue(MetricInvalidations) == 0 {
		t.Fatal("no invalidations recorded")
	}

	// Post-churn sanity: a settled cache hits like normal.
	k := Key{SQL: "select settled", Strategy: "auto", Version: version.Load()}
	if _, _, err := c.GetOrCompute(k, func() (any, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}
	if _, shared, err := c.GetOrCompute(k, func() (any, error) { return 2, nil }); err != nil || !shared {
		t.Fatalf("settled cache did not hit: shared=%v err=%v", shared, err)
	}
	if got, ok := c.Get(k); !ok || got != 1 {
		t.Fatalf("settled entry = %v (present %v), want the first computed value", got, ok)
	}
}

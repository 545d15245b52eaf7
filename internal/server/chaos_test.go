package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaosnet"
	"repro/internal/datum"
	"repro/internal/obsv"
	"repro/internal/testkit/leakcheck"
)

// TestChaosSoak is the acceptance test for the resilience layer as a whole:
// many sessions hammer the server through a chaos proxy that resets,
// truncates, delays and blackholes connections on a deterministic schedule.
// The invariant is strict — every query either returns exactly the rows a
// clean connection returns, or fails with a typed *Error; never a hang,
// never corrupted rows, and afterwards no leaked session, cursor or
// goroutine.
func TestChaosSoak(t *testing.T) {
	leakcheck.Check(t)
	t.Run("columnar", func(t *testing.T) {
		reg := obsv.NewRegistry()
		srv, addr, stop := startServer(t, Config{
			Registry:    reg,
			MaxInflight: 4, MaxQueue: 8, QueueWait: 200 * time.Millisecond,
			IdleTimeout: 10 * time.Second, WriteTimeout: 2 * time.Second,
		})
		defer stop()

		// The oracle: expected rows per query, collected over a clean (direct)
		// connection before any chaos starts.
		type tq struct {
			sql   string
			binds []BindValue
		}
		queries := []tq{
			{"SELECT e.EMP_ID FROM employees e WHERE e.DEPT_ID = :d", []BindValue{Named("d", datum.NewInt(10))}},
			{"SELECT e.EMPLOYEE_NAME, e.SALARY FROM employees e WHERE e.SALARY > :s AND e.DEPT_ID = :d",
				[]BindValue{Named("s", datum.NewFloat(1000)), Named("d", datum.NewInt(20))}},
			{paramQuery, []BindValue{Named("d", datum.NewInt(10)), Named("minsal", datum.NewFloat(0)), Named("b", datum.NewFloat(0))}},
			{"SELECT d.DEPARTMENT_NAME FROM departments d WHERE d.BUDGET > :b", []BindValue{Named("b", datum.NewFloat(0))}},
		}
		clean, err := Dial(addr, nil)
		if err != nil {
			t.Fatal(err)
		}
		oracle := make([][]string, len(queries))
		for i, q := range queries {
			rows, err := clean.Query(q.sql, q.binds...)
			if err != nil {
				t.Fatalf("oracle query %d: %v", i, err)
			}
			if len(rows) == 0 {
				t.Fatalf("oracle query %d returned no rows; the soak would be vacuous", i)
			}
			oracle[i] = rowStrings(rows)
		}
		if err := clean.Close(); err != nil {
			t.Fatal(err)
		}

		proxy, err := chaosnet.Start(chaosnet.Config{
			Target: addr, Seed: 42, FaultEvery: 3,
			Delay: 30 * time.Millisecond, Registry: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer proxy.Close()

		const workers = 8
		const iters = 25
		var ok, typed atomic.Int64
		var wg sync.WaitGroup
		errs := make(chan error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				policy := RetryPolicy{MaxAttempts: 4, BaseBackoff: 5 * time.Millisecond,
					MaxBackoff: 50 * time.Millisecond, Seed: int64(w + 1)}
				var cli *Client
				defer func() {
					if cli != nil {
						cli.Close()
					}
				}()
				for i := 0; i < iters; i++ {
					if cli == nil || cli.Broken() {
						if cli != nil {
							cli.Close()
						}
						c, err := DialWith(proxy.Addr(), DialOptions{
							Retry: policy, HandshakeTimeout: 2 * time.Second, CallTimeout: 2 * time.Second,
						})
						if err != nil {
							// A chaos fault ate the handshake; that must still
							// be a typed failure, and the next loop redials.
							var se *Error
							if !errors.As(err, &se) {
								errs <- fmt.Errorf("worker %d: untyped dial error: %v", w, err)
								return
							}
							typed.Add(1)
							continue
						}
						cli = c
					}
					qi := (w + i) % len(queries)
					rows, err := cli.Query(queries[qi].sql, queries[qi].binds...)
					if err != nil {
						var se *Error
						if !errors.As(err, &se) {
							errs <- fmt.Errorf("worker %d iter %d: untyped error: %v", w, i, err)
							return
						}
						typed.Add(1)
						continue
					}
					if !equalStrs(rowStrings(rows), oracle[qi]) {
						errs <- fmt.Errorf("worker %d iter %d: query %d returned wrong rows through chaos (%d vs %d)",
							w, i, qi, len(rows), len(oracle[qi]))
						return
					}
					ok.Add(1)
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}

		if ok.Load() == 0 {
			t.Fatal("no query succeeded through the chaos proxy")
		}
		// The schedule is deterministic per accept index, but how many
		// connections the soak opens depends on scheduling. Kick fresh
		// connections until every fault kind has demonstrably fired.
		kinds := func() map[chaosnet.Kind]int {
			m := map[chaosnet.Kind]int{}
			for _, e := range proxy.Events() {
				m[e.Kind]++
			}
			return m
		}
		for extra := 0; len(kinds()) < len(chaosnet.AllKinds()) && extra < 120; extra++ {
			func() {
				ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
				defer cancel()
				c, err := DialWith(proxy.Addr(), DialOptions{HandshakeTimeout: 300 * time.Millisecond})
				if err != nil {
					return
				}
				defer c.Close()
				c.QueryContext(ctx, queries[0].sql, queries[0].binds...)
			}()
		}
		dist := kinds()
		if len(dist) < len(chaosnet.AllKinds()) {
			t.Fatalf("soak did not exercise every fault kind: %v over %d conns", dist, proxy.Conns())
		}
		t.Logf("soak: %d ok, %d typed failures, %d conns, faults %v",
			ok.Load(), typed.Load(), proxy.Conns(), dist)

		// Teardown half of the invariant: sever the proxy, drain the server,
		// and nothing may linger. leakcheck.Check (registered first, so it runs after
		// the deferred stop) covers goroutines; the gauges cover sessions.
		if err := proxy.Close(); err != nil {
			t.Fatal(err)
		}
		stopStart := time.Now()
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Fatalf("post-soak shutdown: %v (after %v)", err, time.Since(stopStart))
		}
		if n := reg.GaugeValue(MetricSessionsActive); n != 0 {
			t.Fatalf("%d sessions survived the soak teardown", n)
		}
		if n := reg.GaugeValue(MetricInflight); n != 0 {
			t.Fatalf("inflight gauge stuck at %d after the soak", n)
		}
	})
}

// Command benchrunner regenerates the paper's evaluation results: Figures
// 2, 3 and 4 (relative improvement of cost-based transformation as a
// function of the top N% most expensive queries), the Section 4.3 group-by
// placement experiment, and Tables 1 and 2.
//
// Usage:
//
//	benchrunner -exp all|fig2|fig3|fig4|gbp|table1|table2|par|vec|overload [-n 12] [-repeats 3] [-seed 1] [-small] [-parallel 0]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/cbqt"
	"repro/internal/faultinject"
	"repro/internal/obsv"
	"repro/internal/storage"
	"repro/internal/testkit"
)

// experiments names the -exp values, in run order under -exp all.
var experiments = []string{"fig2", "fig3", "fig4", "gbp", "table1", "table2", "par", "vec", "overload"}

func main() {
	valid := "all, " + strings.Join(experiments, ", ")
	exp := flag.String("exp", "all", "experiment: "+valid)
	n := flag.Int("n", 12, "queries per workload class")
	maxInflight := flag.Int("max-inflight", 4, "admission slots in the overload experiment")
	point := flag.Duration("point", 2*time.Second, "measurement window per offered-load point in the overload experiment")
	overloadDelay := flag.Duration("overload-delay", 10*time.Millisecond,
		"simulated optimizer service time per query in the overload experiment; keeps the admission gate, not the CPU, the bottleneck on small machines (0 = pure CPU)")
	repeats := flag.Int("repeats", 3, "execution repetitions per query (min taken)")
	seed := flag.Int64("seed", 1, "data generation seed")
	small := flag.Bool("small", false, "use the small data sizes (quick smoke run)")
	parallel := flag.Int("parallel", 0, "CBQT state-evaluation workers for the figure experiments (0 = cbqt default)")
	timeout := flag.Duration("timeout", 0, "per-query optimization deadline for the figure experiments (0 = none)")
	metrics := flag.Bool("metrics", false, "dump the optimizer metrics delta after each experiment")
	flag.Parse()
	if *exp != "all" && !slices.Contains(experiments, *exp) {
		fmt.Fprintf(os.Stderr, "benchrunner: unknown -exp %q (valid: %s)\n", *exp, valid)
		os.Exit(2)
	}
	bench.Parallelism = *parallel
	bench.Budget = cbqt.Budget{Timeout: *timeout}
	var reg *obsv.Registry
	if *metrics {
		reg = obsv.NewRegistry()
		bench.Metrics = reg
	}

	// Interrupt cancels the running experiment: searches degrade to their
	// best plan so far and the next query execution aborts.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	fmt.Println("building database...")
	start := time.Now()
	var db *storage.DB
	if *small {
		db = testkit.NewDB(testkit.SmallSizes(), *seed)
	} else {
		db = bench.NewBenchDB(*seed)
	}
	fmt.Printf("database ready in %s\n\n", time.Since(start).Round(time.Millisecond))

	run := func(name string, f func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		var before obsv.Snapshot
		if reg != nil {
			before = reg.Snapshot()
		}
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		if reg != nil {
			fmt.Printf("--- %s metrics ---\n%s\n", name, reg.Snapshot().Sub(before).Dump())
		}
	}

	run("fig2", func() error {
		r, err := bench.Figure2(ctx, db, *n, *repeats)
		if err != nil {
			return err
		}
		fmt.Println(r)
		return nil
	})
	run("fig3", func() error {
		r, err := bench.Figure3(ctx, db, *n, *repeats)
		if err != nil {
			return err
		}
		fmt.Println(r)
		return nil
	})
	run("fig4", func() error {
		r, err := bench.Figure4(ctx, db, *n, *repeats)
		if err != nil {
			return err
		}
		fmt.Println(r)
		return nil
	})
	run("gbp", func() error {
		r, err := bench.GroupByPlacementExp(ctx, db, *n, *repeats)
		if err != nil {
			return err
		}
		fmt.Println(r)
		return nil
	})
	run("table1", func() error {
		r, err := bench.Table1(db)
		if err != nil {
			return err
		}
		fmt.Println(bench.FormatTable1(r))
		return nil
	})
	run("table2", func() error {
		rows, err := bench.Table2(db)
		if err != nil {
			return err
		}
		fmt.Println(bench.FormatTable2(rows))
		return nil
	})
	run("par", func() error {
		levels := []int{1, 2, 4}
		if p := runtime.GOMAXPROCS(0); p > 4 {
			levels = append(levels, p)
		}
		rows, err := bench.ParallelSearch(db, levels)
		if err != nil {
			return err
		}
		fmt.Println(bench.FormatParallelSearch(rows))
		return nil
	})
	run("vec", func() error {
		rows, err := bench.Vec(ctx, db, *repeats)
		if err != nil {
			return err
		}
		fmt.Println(bench.FormatVec(rows))
		return nil
	})
	run("overload", func() error {
		opts := cbqt.DefaultOptions()
		opts.Parallelism = 1
		if *overloadDelay > 0 {
			opts.Faults = faultinject.New(faultinject.Fault{
				Site: "heuristics", Kind: faultinject.KindDelay, Delay: *overloadDelay,
			})
		}
		r, err := bench.Overload(ctx, bench.OverloadConfig{
			DB: db, Opts: opts, MaxInflight: *maxInflight, PointDuration: *point, Seed: *seed,
		})
		if err != nil {
			return err
		}
		fmt.Println(r)
		return nil
	})
}

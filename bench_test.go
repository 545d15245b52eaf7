// Package repro's root-level benchmarks regenerate every table and figure
// of the paper's evaluation (Section 4). Each benchmark prints the
// corresponding report; run with:
//
//	go test -bench=. -benchmem
//
// The workload sizes here are trimmed so the full suite completes in
// minutes; cmd/benchrunner runs the same experiments at larger scale.
package repro

import (
	"context"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/cbqt"
	"repro/internal/qtree"
	"repro/internal/storage"
	"repro/internal/testkit"
	"repro/internal/transform"
)

var (
	benchDBOnce sync.Once
	benchDB     *storage.DB
)

func sharedDB() *storage.DB {
	benchDBOnce.Do(func() {
		benchDB = bench.NewBenchDB(1)
	})
	return benchDB
}

// BenchmarkFigure2CBQT reproduces Figure 2: total run time of cost-based
// transformation decisions versus the pre-CBQT heuristic decisions, as a
// function of the top N% most expensive queries.
func BenchmarkFigure2CBQT(b *testing.B) {
	db := sharedDB()
	for i := 0; i < b.N; i++ {
		r, err := bench.Figure2(context.Background(), db, 4, 2)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + r.String())
		}
	}
}

// BenchmarkFigure3Unnesting reproduces Figure 3: unnesting disabled versus
// cost-based unnesting.
func BenchmarkFigure3Unnesting(b *testing.B) {
	db := sharedDB()
	for i := 0; i < b.N; i++ {
		r, err := bench.Figure3(context.Background(), db, 4, 2)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + r.String())
		}
	}
}

// BenchmarkFigure4JPPD reproduces Figure 4: join predicate pushdown
// disabled versus cost-based JPPD.
func BenchmarkFigure4JPPD(b *testing.B) {
	db := sharedDB()
	for i := 0; i < b.N; i++ {
		r, err := bench.Figure4(context.Background(), db, 4, 2)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + r.String())
		}
	}
}

// BenchmarkGroupByPlacement reproduces the Section 4.3 experiment:
// group-by placement off versus on.
func BenchmarkGroupByPlacement(b *testing.B) {
	db := sharedDB()
	for i := 0; i < b.N; i++ {
		r, err := bench.GroupByPlacementExp(context.Background(), db, 6, 2)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + r.String())
		}
	}
}

// BenchmarkTable1AnnotationReuse reproduces Table 1: query blocks optimized
// with and without reuse of query sub-tree cost annotations.
func BenchmarkTable1AnnotationReuse(b *testing.B) {
	db := sharedDB()
	for i := 0; i < b.N; i++ {
		r, err := bench.Table1(db)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + bench.FormatTable1(r))
		}
	}
}

// BenchmarkTable2SearchStrategies reproduces Table 2: optimization time
// and state counts of the four state-space search strategies on a query
// with three base tables and four unnestable three-table subqueries.
func BenchmarkTable2SearchStrategies(b *testing.B) {
	db := sharedDB()
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table2(db)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + bench.FormatTable2(rows))
		}
	}
}

// BenchmarkAblationAnnotationReuse measures the optimization-time effect of
// the §3.4.2 annotation reuse alone (Table 2's query, exhaustive search).
func BenchmarkAblationAnnotationReuse(b *testing.B) {
	db := sharedDB()
	b.Run("reuse=off", func(b *testing.B) {
		benchOptimizeTable2(b, db, false, false)
	})
	b.Run("reuse=on", func(b *testing.B) {
		benchOptimizeTable2(b, db, true, false)
	})
}

// BenchmarkAblationCostCutoff measures the §3.4.1 cost cut-off effect.
func BenchmarkAblationCostCutoff(b *testing.B) {
	db := sharedDB()
	b.Run("cutoff=off", func(b *testing.B) {
		benchOptimizeTable2(b, db, true, false)
	})
	b.Run("cutoff=on", func(b *testing.B) {
		benchOptimizeTable2(b, db, true, true)
	})
}

// BenchmarkAblationInterleaving measures what interleaving view merging
// with unnesting (§3.3.1) buys: the chosen plan cost with and without the
// interleaved variant on a Q1-family query.
func BenchmarkAblationInterleaving(b *testing.B) {
	db := sharedDB()
	// Selective outer filter plus an unindexed correlation column: TIS is
	// slow, the plain unnested view aggregates the whole join, and only
	// the interleaved unnest+merge form aggregates the few joined rows.
	src := `
SELECT e1.employee_name FROM employees e1
WHERE e1.emp_id BETWEEN 100 AND 130 AND
  e1.salary > (SELECT AVG(jb.min_salary) FROM job_history j, jobs jb
               WHERE j.job_id = jb.job_id AND j.dept_id = e1.dept_id)`
	run := func(b *testing.B, noInterleave bool) {
		var cost float64
		for i := 0; i < b.N; i++ {
			q, err := qtree.BindSQL(src, db.Catalog)
			if err != nil {
				b.Fatal(err)
			}
			opts := cbqt.DefaultOptions()
			opts.Strategy = cbqt.StrategyExhaustive
			opts.Rules = []transform.Rule{&transform.UnnestSubquery{NoInterleave: noInterleave}}
			o := &cbqt.Optimizer{Cat: db.Catalog, Opts: opts}
			res, err := o.Optimize(q)
			if err != nil {
				b.Fatal(err)
			}
			cost = res.Plan.Cost.Total
		}
		b.ReportMetric(cost, "plan-cost")
	}
	b.Run("interleave=off", func(b *testing.B) { run(b, true) })
	b.Run("interleave=on", func(b *testing.B) { run(b, false) })
}

// BenchmarkSmallDBEndToEnd runs the tiny-scale smoke version of every
// figure so the full paper pipeline is exercised even in -short
// environments.
func BenchmarkSmallDBEndToEnd(b *testing.B) {
	db := testkit.NewDB(testkit.SmallSizes(), 7)
	for i := 0; i < b.N; i++ {
		if _, err := bench.Figure2(context.Background(), db, 2, 1); err != nil {
			b.Fatal(err)
		}
		if _, err := bench.Figure3(context.Background(), db, 2, 1); err != nil {
			b.Fatal(err)
		}
		if _, err := bench.Figure4(context.Background(), db, 2, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdhocOptimize sizes the one-shot optimize path in process:
// parse, bind and CBQT (heuristics, state search, final plan) of the texts
// of bench.AdhocCorpus in turn, on small data — the
// per-statement work of the adhoc_cbqt benchmark workload without the
// server or the executor. One op is one statement, so ns/op, B/op and
// allocs/op are per statement; us/stmt repeats ns/op in microseconds.
func BenchmarkAdhocOptimize(b *testing.B) {
	db := testkit.NewDB(testkit.SmallSizes(), 7)
	corpus := bench.AdhocCorpus(41)
	opts := cbqt.DefaultOptions()
	o := &cbqt.Optimizer{Cat: db.Catalog, Opts: opts}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q, err := qtree.BindSQL(corpus[i%len(corpus)], db.Catalog)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := o.Optimize(q); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "us/stmt")
}

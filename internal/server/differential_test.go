package server

import (
	"testing"

	"repro/internal/cbqt"
	"repro/internal/datum"
	"repro/internal/exec"
	"repro/internal/obsv"
	"repro/internal/plancache"
	"repro/internal/qtree"
	"repro/internal/storage"
	"repro/internal/testkit"
	"repro/internal/workload"
)

// TestDifferentialCachedPlanVsFresh is the bind-parameter differential
// suite: each parameterized workload query is prepared once on the server
// and executed with N bind sets through the shared cached plan; every
// execution must match, row for row, a fresh in-process parse + optimize +
// execute of the same query with the literals substituted back in.
func TestDifferentialCachedPlanVsFresh(t *testing.T) {
	t.Run("columnar", func(t *testing.T) {
		sizes := testkit.SmallSizes()
		db := testkit.NewDB(sizes, 1)
		refDB := testkit.NewDB(sizes, 1) // identical data, optimized fresh
		reg := obsv.NewRegistry()
		_, addr, stop := startServer(t, Config{DB: db, Registry: reg})
		defer stop()
		cli, err := Dial(addr, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()

		cfg := workload.DefaultConfig(5, 80, sizes.Employees, sizes.Departments, sizes.Jobs)
		cfg.RelevantFraction = 0.5 // stress the transformed classes
		const nSets = 3

		tested := 0
		for _, wq := range workload.Generate(cfg) {
			pq, ok := workload.Parameterize(wq.SQL, nSets, int64(wq.ID)*31+7)
			if !ok {
				continue
			}
			stmt, err := cli.Prepare(pq.SQL)
			if err != nil {
				t.Fatalf("query %d (%s): prepare: %v\n%s", wq.ID, wq.Class, err, pq.SQL)
			}
			for s := 0; s < nSets; s++ {
				binds := make([]BindValue, len(pq.Names))
				for i, name := range pq.Names {
					binds[i] = Named(name, pq.Sets[s][i])
				}
				if err := stmt.Execute(binds...); err != nil {
					t.Fatalf("query %d set %d: execute: %v\n%s", wq.ID, s, err, pq.SQL)
				}
				if s > 0 && !stmt.Cached {
					t.Fatalf("query %d set %d did not reuse the cached plan", wq.ID, s)
				}
				got, err := stmt.FetchAll()
				if err != nil {
					t.Fatalf("query %d set %d: fetch: %v", wq.ID, s, err)
				}

				want := freshRun(t, refDB, pq.Literal(s))
				if !equalStrs(rowStrings(got), rowStrings(want)) {
					t.Fatalf("query %d (%s) set %d: cached-plan rows differ from fresh run\nparam SQL: %s\nliteral SQL: %s\ncached: %v\nfresh:  %v",
						wq.ID, wq.Class, s, pq.SQL, pq.Literal(s), rowStrings(got), rowStrings(want))
				}
			}
			if err := stmt.Close(); err != nil {
				t.Fatal(err)
			}
			tested++
		}
		if tested < 30 {
			t.Fatalf("only %d queries exercised; generator or parameterizer regressed", tested)
		}
		if reg.CounterValue(plancache.MetricHits) == 0 {
			t.Fatal("differential run never hit the plan cache")
		}
	})
}

// freshRun parses, optimizes and executes literal SQL in-process — the
// reference implementation the served cached plans are compared against.
func freshRun(t *testing.T, db *storage.DB, sql string) [][]datum.Datum {
	t.Helper()
	q, err := qtree.BindSQL(sql, db.Catalog)
	if err != nil {
		t.Fatalf("fresh bind: %v\n%s", err, sql)
	}
	o := &cbqt.Optimizer{Cat: db.Catalog, Opts: cbqt.DefaultOptions()}
	res, err := o.Optimize(q)
	if err != nil {
		t.Fatalf("fresh optimize: %v\n%s", err, sql)
	}
	r, err := exec.Run(db, res.Plan)
	if err != nil {
		t.Fatalf("fresh exec: %v\n%s", err, sql)
	}
	out := make([][]datum.Datum, len(r.Rows))
	for i, row := range r.Rows {
		out[i] = row
	}
	return out
}

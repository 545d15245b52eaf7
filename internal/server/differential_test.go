package server

import (
	"strings"
	"testing"

	"repro/internal/cbqt"
	"repro/internal/datum"
	"repro/internal/exec"
	"repro/internal/obsv"
	"repro/internal/optimizer"
	"repro/internal/plancache"
	"repro/internal/qtree"
	"repro/internal/storage"
	"repro/internal/testkit"
	"repro/internal/workload"
)

// bucketVector is the plan-cache bucket vector the server keys an execute
// of text with named binds by (names as the binder reports them).
func bucketVector(t *testing.T, db *storage.DB, text string, binds map[string]datum.Datum) plancache.Buckets {
	t.Helper()
	q, err := qtree.BindSQL(text, db.Catalog)
	if err != nil {
		t.Fatalf("bind: %v\n%s", err, text)
	}
	st := &stmt{binds: make([]datum.Datum, len(q.Params)), preds: optimizer.ParamPreds(q)}
	for i, name := range q.Params {
		v, ok := binds[name]
		if !ok {
			t.Fatalf("no bind for :%s", name)
		}
		st.binds[i] = v
	}
	return st.buckets()
}

// TestDifferentialCachedPlanVsFresh is the bind-parameter differential
// suite: each parameterized workload query is prepared once on the server
// and executed with N bind sets through the shared plan cache; every
// execution must match, row for row, a fresh in-process parse + optimize +
// execute of the same query with the literals substituted back in. A bind
// set reports a cached plan exactly when an earlier set had the same
// bucket vector.
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

		// The workload repeats some texts, so an execute is cached exactly
		// when any earlier one, of any query, had its text and vector.
		type variant struct {
			text string
			vec  plancache.Buckets
		}
		seen := map[variant]bool{}
		tested, rebucketed := 0, 0
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
				named := map[string]datum.Datum{}
				for i, name := range pq.Names {
					binds[i] = Named(name, pq.Sets[s][i])
					named[strings.ToUpper(name)] = pq.Sets[s][i]
				}
				if err := stmt.Execute(binds...); err != nil {
					t.Fatalf("query %d set %d: execute: %v\n%s", wq.ID, s, err, pq.SQL)
				}
				k := variant{plancache.Normalize(pq.SQL), bucketVector(t, db, pq.SQL, named)}
				if stmt.Cached != seen[k] {
					t.Fatalf("query %d set %d: cached = %v, but an earlier execute of the text with bucket vector %v: %v", wq.ID, s, stmt.Cached, k.vec, seen[k])
				}
				seen[k] = true
				if s > 0 && !stmt.Cached {
					rebucketed++
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
		t.Logf("%d queries, %d later bind sets planned for a new bucket vector", tested, rebucketed)
		if rebucketed == 0 {
			t.Fatal("no bind set moved its statement to a new bucket vector; the bucketed path went unexercised")
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

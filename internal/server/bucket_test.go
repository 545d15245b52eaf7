package server_test

import (
	"context"
	"net"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/cbqt"
	"repro/internal/datum"
	"repro/internal/exec"
	"repro/internal/obsv"
	"repro/internal/plancache"
	"repro/internal/qtree"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/testkit"
)

// TestBucketedPlansOnMediumData pins the plan cache's selectivity buckets
// where they matter. In Table2FamilyQuery(2), salary > 10 400 and
// salary > 10 700 fall a bucket apart: the two binds get their own plan
// variants, with different CBQT states, and each returns what the literal
// text returns when optimized fresh. A primary-key equality estimates every
// key alike, so 512 keys share one variant, optimized once.
func TestBucketedPlansOnMediumData(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the medium database")
	}
	db := testkit.NewDB(testkit.MediumSizes(), 1)
	reg := obsv.NewRegistry()
	srv := server.New(server.Config{DB: db, Registry: reg})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-served; err != nil {
			t.Errorf("serve: %v", err)
		}
	}()
	cli, err := server.Dial(l.Addr().String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	text := bench.Table2FamilyQuery(2) + " AND e.salary > :salary"
	st, err := cli.Prepare(text)
	if err != nil {
		t.Fatal(err)
	}
	states := map[int]string{}
	for _, salary := range []int{10400, 10700} {
		if err := st.Execute(server.Named("salary", datum.NewInt(int64(salary)))); err != nil {
			t.Fatal(err)
		}
		if st.Cached {
			t.Fatalf("salary > %d reused a cached plan; its bucket is new", salary)
		}
		got, err := st.FetchAll()
		if err != nil {
			t.Fatal(err)
		}
		literal := strings.Replace(text, ":salary", strconv.Itoa(salary), 1)
		want := literalRows(t, db, literal)
		if len(want) == 0 {
			t.Fatalf("salary > %d returns no rows; the test is vacuous", salary)
		}
		if g, w := sortedRows(got), sortedRows(want); strings.Join(g, "\n") != strings.Join(w, "\n") {
			t.Fatalf("salary > %d: %d rows from the bucketed plan, %d from the literal text", salary, len(g), len(w))
		}
		states[salary] = st.SQL
	}
	if states[10400] == states[10700] {
		t.Fatalf("both buckets chose one state:\n%s", states[10400])
	}

	pk, err := cli.Prepare(`SELECT e.employee_name, e.salary FROM employees e WHERE e.emp_id = :emp_id`)
	if err != nil {
		t.Fatal(err)
	}
	misses := reg.CounterValue(plancache.MetricMisses)
	for key := 1; key <= 512; key++ {
		if err := pk.Execute(server.Named("emp_id", datum.NewInt(int64(key)))); err != nil {
			t.Fatal(err)
		}
		if key > 1 && !pk.Cached {
			t.Fatalf("emp_id = %d missed the plan cache: a key equality has one bucket", key)
		}
	}
	if got := reg.CounterValue(plancache.MetricMisses) - misses; got != 1 {
		t.Fatalf("512 keys missed the plan cache %d times, want 1", got)
	}
	if v := reg.GaugeValue(plancache.MetricVariants); v != 3 {
		t.Fatalf("%d live bucket variants, want 3 (two salary buckets, one key bucket)", v)
	}
}

// literalRows optimizes and runs a literal text in process.
func literalRows(t *testing.T, db *storage.DB, text string) [][]datum.Datum {
	t.Helper()
	q, err := qtree.BindSQL(text, db.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	res, err := (&cbqt.Optimizer{Cat: db.Catalog, Opts: cbqt.DefaultOptions()}).Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	r, err := exec.Run(db, res.Plan)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]datum.Datum, len(r.Rows))
	for i, row := range r.Rows {
		out[i] = row
	}
	return out
}

func sortedRows(rows [][]datum.Datum) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		parts := make([]string, len(r))
		for j, d := range r {
			parts[j] = d.String()
		}
		out[i] = strings.Join(parts, "|")
	}
	sort.Strings(out)
	return out
}

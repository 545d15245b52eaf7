package server

import (
	"context"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cbqt"
	"repro/internal/datum"
	"repro/internal/exec"
	"repro/internal/obsv"
	"repro/internal/optimizer"
	"repro/internal/plancache"
	"repro/internal/qtree"
	"repro/internal/testkit"
)

// startServer brings up a server on a loopback listener and returns its
// address plus a shutdown func.
func startServer(t *testing.T, cfg Config) (*Server, string, func()) {
	t.Helper()
	if cfg.DB == nil {
		cfg.DB = testkit.NewDB(testkit.SmallSizes(), 1)
	}
	if cfg.Registry == nil {
		cfg.Registry = obsv.NewRegistry()
	}
	srv := New(cfg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	}
	return srv, l.Addr().String(), stop
}

// rowStrings renders rows the way the cbqt differential tests do: datums
// joined with "|", sorted, so order-insensitive comparison is exact.
func rowStrings(rows [][]datum.Datum) []string {
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

func equalStrs(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

const paramQuery = `SELECT e.EMPLOYEE_NAME, e.SALARY FROM employees e
	WHERE e.DEPT_ID = :d AND e.SALARY > :minsal
	AND EXISTS (SELECT 1 FROM departments d2 WHERE d2.DEPT_ID = e.DEPT_ID AND d2.BUDGET > :b)`

func TestPrepareBindExecuteFetch(t *testing.T) {
	db := testkit.NewDB(testkit.SmallSizes(), 1)
	_, addr, stop := startServer(t, Config{DB: db})
	defer stop()

	cli, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	stmt, err := cli.Prepare(paramQuery)
	if err != nil {
		t.Fatal(err)
	}
	wantParams := []string{"D", "MINSAL", "B"}
	if !equalStrs(stmt.Params, wantParams) {
		t.Fatalf("params = %v, want %v", stmt.Params, wantParams)
	}

	// Bind by name (mixed case), then execute and page with a tiny batch.
	if err := stmt.Bind(Named("d", datum.NewInt(10)), Named("B", datum.NewFloat(0))); err != nil {
		t.Fatal(err)
	}
	if err := stmt.Execute(Named("minsal", datum.NewFloat(0))); err != nil {
		t.Fatal(err)
	}
	var got [][]datum.Datum
	for {
		batch, done, err := stmt.Fetch(2)
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) > 2 {
			t.Fatalf("fetch(2) returned %d rows", len(batch))
		}
		got = append(got, batch...)
		if done {
			break
		}
	}
	if len(got) != stmt.RowCount {
		t.Fatalf("fetched %d rows, execute reported %d", len(got), stmt.RowCount)
	}

	// Reference: same query inline with literals substituted via params.
	q, err := qtree.BindSQL(paramQuery, db.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	o := &cbqt.Optimizer{Cat: db.Catalog, Opts: cbqt.DefaultOptions()}
	res, err := o.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	binds := []datum.Datum{datum.NewInt(10), datum.NewFloat(0), datum.NewFloat(0)}
	ref, err := exec.RunParams(context.Background(), db, res.Plan, binds)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Rows) == 0 {
		t.Fatal("reference query returned no rows; test is vacuous")
	}
	refRows := make([][]datum.Datum, len(ref.Rows))
	for i, r := range ref.Rows {
		refRows[i] = r
	}
	if !equalStrs(rowStrings(got), rowStrings(refRows)) {
		t.Fatalf("server rows differ from in-process rows:\n%v\nvs\n%v",
			rowStrings(got), rowStrings(refRows))
	}

	// Same statement, different binds in the same buckets: cached plan,
	// different rows.
	vec := func(d int64, minsal, b float64) plancache.Buckets {
		return bucketVector(t, db, paramQuery, map[string]datum.Datum{
			"D": datum.NewInt(d), "MINSAL": datum.NewFloat(minsal), "B": datum.NewFloat(b)})
	}
	if vec(20, 0, 0) != vec(10, 0, 0) {
		t.Fatalf("dept 20 and dept 10 fall in different buckets: %v, %v", vec(20, 0, 0), vec(10, 0, 0))
	}
	if err := stmt.Execute(Named("d", datum.NewInt(20)), Named("minsal", datum.NewFloat(0)), Named("b", datum.NewFloat(0))); err != nil {
		t.Fatal(err)
	}
	if !stmt.Cached {
		t.Fatal("second execute of the same text in the same buckets should hit the plan cache")
	}

	// Binds in another bucket are planned for their own selectivity, once.
	if vec(20, 10000, 0) == vec(10, 0, 0) {
		t.Fatalf("salary > 10000 shares the bucket vector %v of salary > 0", vec(10, 0, 0))
	}
	for i, wantCached := range []bool{false, true} {
		if err := stmt.Execute(Named("d", datum.NewInt(20)), Named("minsal", datum.NewFloat(10000)), Named("b", datum.NewFloat(0))); err != nil {
			t.Fatal(err)
		}
		if stmt.Cached != wantCached {
			t.Fatalf("execute %d in a new bucket: cached = %v, want %v", i, stmt.Cached, wantCached)
		}
	}
}

func TestExecuteErrors(t *testing.T) {
	_, addr, stop := startServer(t, Config{})
	defer stop()
	cli, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	if _, err := cli.Prepare("SELEC nonsense"); err == nil {
		t.Fatal("parse error should fail prepare")
	}
	if _, err := cli.Prepare("SELECT x FROM no_such_table"); err == nil {
		t.Fatal("bind error should fail prepare")
	}
	stmt, err := cli.Prepare("SELECT e.EMP_ID FROM employees e WHERE e.DEPT_ID = :d")
	if err != nil {
		t.Fatal(err)
	}
	if err := stmt.Execute(); err == nil || !strings.Contains(err.Error(), "unbound parameter") {
		t.Fatalf("executing with unbound parameters: err = %v", err)
	}
	if err := stmt.Bind(Named("nope", datum.NewInt(1))); err == nil {
		t.Fatal("binding an unknown name should fail")
	}
	// The session must survive all of the above errors.
	if err := stmt.Execute(Named("d", datum.NewInt(10))); err != nil {
		t.Fatalf("session did not survive request errors: %v", err)
	}
}

func TestOneShotQueryAndPositionalBinds(t *testing.T) {
	_, addr, stop := startServer(t, Config{})
	defer stop()
	cli, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	rows, err := cli.Query("SELECT e.EMP_ID FROM employees e WHERE e.DEPT_ID = ? AND e.SALARY > ?",
		Positional(datum.NewInt(10)), Positional(datum.NewFloat(0)))
	if err != nil {
		t.Fatal(err)
	}
	named, err := cli.Query("SELECT e.EMP_ID FROM employees e WHERE e.DEPT_ID = :d AND e.SALARY > :s",
		Named("d", datum.NewInt(10)), Named("s", datum.NewFloat(0)))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 || !equalStrs(rowStrings(rows), rowStrings(named)) {
		t.Fatalf("positional (%d rows) and named (%d rows) results differ", len(rows), len(named))
	}
}

// TestSharedCacheAcrossSessions proves the tentpole's amortization claim:
// two sessions running the same text trigger exactly one optimizer run.
func TestSharedCacheAcrossSessions(t *testing.T) {
	reg := obsv.NewRegistry()
	_, addr, stop := startServer(t, Config{Registry: reg})
	defer stop()

	c1, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	// Different literal layout, same normalized text.
	sqlA := "SELECT e.EMP_ID FROM employees e WHERE e.DEPT_ID = :d"
	sqlB := "select  E.emp_id  from EMPLOYEES e where E.DEPT_ID  =  :D -- c"
	if _, err := c1.Query(sqlA, Named("d", datum.NewInt(10))); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Query(sqlB, Named("d", datum.NewInt(20))); err != nil {
		t.Fatal(err)
	}
	if misses := reg.CounterValue(plancache.MetricMisses); misses != 1 {
		t.Fatalf("plan cache misses = %d across two sessions, want 1", misses)
	}
	if q := reg.CounterValue("cbqt.queries"); q != 1 {
		t.Fatalf("optimizer ran %d times for one distinct query", q)
	}
}

// TestAnalyzeInvalidatesCachedPlans is the stats-version regression test:
// a cached plan must not survive ANALYZE, and the new plan must see the
// new statistics.
func TestAnalyzeInvalidatesCachedPlans(t *testing.T) {
	db := testkit.NewDB(testkit.SmallSizes(), 1)
	reg := obsv.NewRegistry()
	_, addr, stop := startServer(t, Config{DB: db, Registry: reg})
	defer stop()
	cli, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	sql := "SELECT e.EMP_ID FROM employees e WHERE e.DEPT_ID = :d"
	stmt, err := cli.Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	if err := stmt.Execute(Named("d", datum.NewInt(10))); err != nil {
		t.Fatal(err)
	}
	if stmt.Cached {
		t.Fatal("first execute cannot be cached")
	}
	before := stmt.RowCount
	if err := stmt.Execute(Named("d", datum.NewInt(10))); err != nil {
		t.Fatal(err)
	}
	if !stmt.Cached {
		t.Fatal("second execute should be cached")
	}

	// Grow the table the cached plan scans, then ANALYZE it. The version
	// bump must force a re-optimize AND the new execution must see the
	// inserted rows (the cached cursor is not stale data).
	n := db.Table("EMPLOYEES").NumVisible()
	for i := 0; i < 5; i++ {
		if _, err := cli.Exec(fmt.Sprintf("INSERT INTO employees VALUES (%d, 'NEW_%d', 10, 5000.0, NULL, 1, '2024-01-01')", 100000+i, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := cli.Analyze("employees"); err != nil {
		t.Fatal(err)
	}
	if inv := reg.CounterValue(plancache.MetricInvalidations); inv == 0 {
		t.Fatal("ANALYZE invalidated no cached plans")
	}
	if err := stmt.Execute(Named("d", datum.NewInt(10))); err != nil {
		t.Fatal(err)
	}
	if stmt.Cached {
		t.Fatal("execute after ANALYZE reused a stale cached plan")
	}
	if stmt.RowCount != before+5 {
		t.Fatalf("post-ANALYZE execution saw %d rows, want %d (stats or index stale)", stmt.RowCount, before+5)
	}
	if got := db.Table("EMPLOYEES").NumVisible(); got != n+5 {
		t.Fatalf("table has %d rows, want %d", got, n+5)
	}
}

// TestGracefulDrain checks the shutdown contract: in-flight cursors can be
// fetched to completion while new statements are refused.
func TestGracefulDrain(t *testing.T) {
	t.Run("columnar", func(t *testing.T) {
		// The cursor must outgrow the page the execute reply carries, or the
		// drain below would be served from the client's buffer and prove
		// nothing about the server.
		srv, addr, _ := startServer(t, Config{DB: testkit.NewDB(pagedSizes(), 1)})
		cli, err := Dial(addr, nil)
		if err != nil {
			t.Fatal(err)
		}

		stmt, err := cli.Prepare("SELECT e.EMP_ID FROM employees e WHERE e.SALARY > :s")
		if err != nil {
			t.Fatal(err)
		}
		if err := stmt.Execute(Named("s", datum.NewFloat(0))); err != nil {
			t.Fatal(err)
		}
		if stmt.RowCount < 2*DefaultFetchRows {
			t.Fatalf("want a cursor of several pages, got %d rows", stmt.RowCount)
		}
		// Partially drain the cursor, then start shutdown.
		if _, _, err := stmt.Fetch(1); err != nil {
			t.Fatal(err)
		}
		shutdownDone := make(chan error, 1)
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			shutdownDone <- srv.Shutdown(ctx)
		}()
		for !srv.Draining() {
			time.Sleep(time.Millisecond)
		}

		// New work is refused...
		if _, err := cli.Prepare("SELECT 1 FROM employees e"); err == nil || !strings.Contains(err.Error(), "draining") {
			t.Fatalf("prepare during drain: err = %v, want draining", err)
		}
		// ...but the open cursor drains to completion.
		var got int
		for {
			batch, done, err := stmt.Fetch(50)
			if err != nil {
				t.Fatalf("fetch during drain: %v", err)
			}
			got += len(batch)
			if done {
				break
			}
		}
		if got != stmt.RowCount-1 {
			t.Fatalf("drained %d rows during shutdown, want %d", got, stmt.RowCount-1)
		}
		if _, sess, err := cli.Metrics(); err != nil || sess.Fetches == 0 {
			t.Fatalf("drain never reached the server: session stats %+v, err %v", sess, err)
		}
		if err := cli.Close(); err != nil {
			t.Fatal(err)
		}
		if err := <-shutdownDone; err != nil {
			t.Fatalf("graceful shutdown returned %v", err)
		}
		// New connections are refused after drain.
		if _, err := Dial(addr, nil); err == nil {
			t.Fatal("dial after shutdown should fail")
		}
	})
}

func TestShutdownDeadlineSeversSessions(t *testing.T) {
	srv, addr, _ := startServer(t, Config{})
	cli, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.conn.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	// The idle session never closes; Shutdown must sever it at the
	// deadline and report the forced close.
	if err := srv.Shutdown(ctx); err == nil || !strings.Contains(err.Error(), "severed") {
		t.Fatalf("shutdown past deadline: err = %v", err)
	}
}

// TestConcurrentSessionsRace is the stress test: many sessions over real
// TCP hammer a small set of distinct queries under -race. Singleflight
// must keep optimizer runs at the distinct-query count, and every session
// must see correct rows throughout.
func TestConcurrentSessionsRace(t *testing.T) {
	db := testkit.NewDB(testkit.SmallSizes(), 1)
	reg := obsv.NewRegistry()
	_, addr, stop := startServer(t, Config{DB: db, Registry: reg})
	defer stop()

	queries := []string{
		"SELECT e.EMP_ID FROM employees e WHERE e.DEPT_ID = :d",
		"SELECT e.EMPLOYEE_NAME FROM employees e WHERE e.SALARY > :s AND e.DEPT_ID = :d",
		paramQuery,
		"SELECT d.DEPARTMENT_NAME FROM departments d WHERE d.BUDGET > :b",
	}
	const sessions = 16
	const iters = 8

	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			cli, err := Dial(addr, nil)
			if err != nil {
				errs <- err
				return
			}
			defer cli.Close()
			for j := 0; j < iters; j++ {
				sql := queries[(id+j)%len(queries)]
				stmt, err := cli.Prepare(sql)
				if err != nil {
					errs <- fmt.Errorf("session %d: prepare: %w", id, err)
					return
				}
				binds := concurrentBinds(id, j)
				// Only bind the names this statement declares.
				var use []BindValue
				for _, b := range binds {
					for _, p := range stmt.Params {
						if strings.EqualFold(b.Name, p) {
							use = append(use, b)
						}
					}
				}
				if err := stmt.Execute(use...); err != nil {
					errs <- fmt.Errorf("session %d: execute: %w", id, err)
					return
				}
				rows, err := stmt.FetchAll()
				if err != nil {
					errs <- fmt.Errorf("session %d: fetch: %w", id, err)
					return
				}
				if len(rows) != stmt.RowCount {
					errs <- fmt.Errorf("session %d: fetched %d rows, want %d", id, len(rows), stmt.RowCount)
					return
				}
				if err := stmt.Close(); err != nil {
					errs <- fmt.Errorf("session %d: close stmt: %w", id, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Singleflight + cache: the optimizer ran at most once per distinct
	// query text and bucket vector, despite 16 sessions × 8 executes.
	type variant struct {
		text string
		vec  plancache.Buckets
	}
	variants := map[variant]bool{}
	for i := 0; i < sessions; i++ {
		for j := 0; j < iters; j++ {
			sql := queries[(i+j)%len(queries)]
			named := map[string]datum.Datum{}
			for _, b := range concurrentBinds(i, j) {
				v, err := b.Value.Decode()
				if err != nil {
					t.Fatal(err)
				}
				named[strings.ToUpper(b.Name)] = v
			}
			variants[variant{sql, bucketVector(t, db, sql, named)}] = true
		}
	}
	if runs := reg.CounterValue("cbqt.queries"); runs > int64(len(variants)) {
		t.Fatalf("optimizer ran %d times for %d distinct query variants", runs, len(variants))
	}
	total := reg.CounterValue(MetricQueries)
	if want := int64(sessions * iters); total != want {
		t.Fatalf("server executed %d queries, want %d", total, want)
	}
	if reg.CounterValue(plancache.MetricHits)+reg.CounterValue(plancache.MetricCoalesced) == 0 {
		t.Fatal("no plan sharing observed across 16 sessions")
	}
}

// concurrentBinds are the binds session id gives its execute j in
// TestConcurrentSessionsRace, a superset of each statement's parameters.
func concurrentBinds(id, j int) []BindValue {
	return []BindValue{
		Named("d", datum.NewInt(int64(10*(1+(id+j)%5)))),
		Named("s", datum.NewFloat(float64(1000*j))),
		Named("b", datum.NewFloat(0)),
		Named("minsal", datum.NewFloat(0)),
	}
}

func TestSessionOptionsStrategy(t *testing.T) {
	reg := obsv.NewRegistry()
	_, addr, stop := startServer(t, Config{Registry: reg})
	defer stop()

	// Two sessions with different strategies must not share plans (the
	// strategy is a cache-key dimension), and an unknown strategy fails
	// the hello.
	a, err := Dial(addr, &SessionOptions{Strategy: "exhaustive"})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Dial(addr, &SessionOptions{Strategy: "linear"})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	sql := "SELECT e.EMP_ID FROM employees e WHERE e.DEPT_ID = :d"
	if _, err := a.Query(sql, Named("d", datum.NewInt(10))); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Query(sql, Named("d", datum.NewInt(10))); err != nil {
		t.Fatal(err)
	}
	if misses := reg.CounterValue(plancache.MetricMisses); misses != 2 {
		t.Fatalf("different strategies shared a plan: misses = %d, want 2", misses)
	}
	if _, err := Dial(addr, &SessionOptions{Strategy: "quantum"}); err == nil {
		t.Fatal("unknown strategy should fail hello")
	}
}

func TestSessionOptionsCheck(t *testing.T) {
	reg := obsv.NewRegistry()
	_, addr, stop := startServer(t, Config{Registry: reg})
	defer stop()

	// A checked session and an unchecked one must not share plans: the
	// checker setting is a cache-key dimension, so a statement that asked
	// for verification is never satisfied by a plan cached without it.
	on, off := true, false
	a, err := Dial(addr, &SessionOptions{Check: &on})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Dial(addr, &SessionOptions{Check: &off})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	sql := "SELECT e.EMP_ID FROM employees e WHERE e.DEPT_ID = :d"
	if _, err := a.Query(sql, Named("d", datum.NewInt(10))); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Query(sql, Named("d", datum.NewInt(10))); err != nil {
		t.Fatal(err)
	}
	if misses := reg.CounterValue(plancache.MetricMisses); misses != 2 {
		t.Fatalf("checked and unchecked sessions shared a plan: misses = %d, want 2", misses)
	}
	// A second checked session shares the checked plan.
	c, err := Dial(addr, &SessionOptions{Check: &on})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Query(sql, Named("d", datum.NewInt(10))); err != nil {
		t.Fatal(err)
	}
	if misses := reg.CounterValue(plancache.MetricMisses); misses != 2 {
		t.Fatalf("second checked session missed the cache: misses = %d, want 2", misses)
	}
}

func TestMetricsVerb(t *testing.T) {
	_, addr, stop := startServer(t, Config{})
	defer stop()
	cli, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Query("SELECT e.EMP_ID FROM employees e WHERE e.DEPT_ID = :d", Named("d", datum.NewInt(10))); err != nil {
		t.Fatal(err)
	}
	m, sess, err := cli.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m[MetricQueries] != 1 {
		t.Fatalf("server.queries = %d, want 1", m[MetricQueries])
	}
	// The 13 rows ride the execute reply: sent, but by no fetch verb.
	if sess == nil || sess.Executes != 1 || sess.Fetches != 0 || sess.RowsSent != 13 {
		t.Fatalf("session stats = %+v", sess)
	}
}

// oneShotAllocBudget bounds the heap allocations of one one-shot execute
// that misses the plan cache, counted on both ends of the session: frames,
// parse, bind, CBQT, planning and the run. Measured on x86-64 with go1.24
// (under -race about 7 more): 485 when the statement was parsed and bound
// once to find its parameters and again to be optimized, 391 once the
// tree bound for the parameters is the one optimized.
const oneShotAllocBudget = 440

// TestOneShotBindsOnceAllocBudget drives one-shot executes through a
// session over net.Pipe, each with its own literals so every one misses
// the plan cache and is optimized.
func TestOneShotBindsOnceAllocBudget(t *testing.T) {
	opts := cbqt.DefaultOptions()
	opts.Check = false
	srv := New(Config{DB: testkit.NewDB(testkit.SmallSizes(), 1), Registry: obsv.NewRegistry(), Opts: opts})
	peer, conn := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.register(conn).run()
	}()
	defer func() {
		peer.Close()
		<-done
	}()
	call := func(req *Request) {
		if err := WriteFrame(peer, req); err != nil {
			t.Fatal(err)
		}
		var resp Response
		if err := ReadFrame(peer, &resp); err != nil {
			t.Fatal(err)
		}
		if !resp.OK || resp.Cached {
			t.Fatalf("%s: ok %v, cached %v: %s", req.Verb, resp.OK, resp.Cached, resp.Error)
		}
	}
	call(&Request{Verb: VerbHello})
	lit := 0
	allocs := testing.AllocsPerRun(50, func() {
		lit++
		call(&Request{Verb: VerbExecute, SQL: fmt.Sprintf(`SELECT e.EMP_ID, e.EMPLOYEE_NAME FROM employees e, departments d
			WHERE e.DEPT_ID = d.DEPT_ID AND d.DEPT_ID = %d AND e.SALARY > %d`, lit%7+1, lit)})
	})
	t.Logf("%.0f allocs per one-shot execute", allocs)
	if allocs >= oneShotAllocBudget {
		t.Fatalf("a one-shot execute allocates %.0f times, budget %d", allocs, oneShotAllocBudget)
	}
}

// cachedExecuteAllocBudget bounds the heap allocations of one execute of a
// prepared statement that hits the plan cache, counted on both ends of the
// session: frames, binds, the plan-cache lookup with its bucket vector, the
// run and the first page. Measured on x86-64 with go1.24: 68 (71–74 under
// -race), both before the key carried a bucket vector and after.
const cachedExecuteAllocBudget = 76

// TestCachedExecuteAllocBudget drives executes of one prepared statement
// with two parameter predicates through a session over net.Pipe. The binds
// stay in one bucket vector, so every execute after the first hits the
// plan cache; computing the vector must allocate nothing.
func TestCachedExecuteAllocBudget(t *testing.T) {
	opts := cbqt.DefaultOptions()
	opts.Check = false
	srv := New(Config{DB: testkit.NewDB(testkit.SmallSizes(), 1), Registry: obsv.NewRegistry(), Opts: opts})
	peer, conn := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.register(conn).run()
	}()
	defer func() {
		peer.Close()
		<-done
	}()
	var page []byte
	call := func(req *Request, wantCached bool) *Response {
		if err := WriteFrame(peer, req); err != nil {
			t.Fatal(err)
		}
		var resp Response
		if err := ReadFrame(peer, &resp); err != nil {
			t.Fatal(err)
		}
		if !resp.OK || resp.Cached != wantCached {
			t.Fatalf("%s: ok %v, cached %v (want %v): %s", req.Verb, resp.OK, resp.Cached, wantCached, resp.Error)
		}
		if resp.Page > 0 {
			if _, err := readBody(peer, &page, resp.Page, "page"); err != nil {
				t.Fatal(err)
			}
		}
		return &resp
	}
	const text = `SELECT e.EMP_ID, e.EMPLOYEE_NAME FROM employees e
		WHERE e.DEPT_ID = :d AND e.SALARY > :s`
	call(&Request{Verb: VerbHello}, false)
	id := call(&Request{Verb: VerbPrepare, SQL: text}, false).Stmt
	exec := &Request{Verb: VerbExecute, Stmt: id, MaxRows: DefaultFetchRows,
		Binds: []BindValue{Named("d", datum.NewInt(10)), Named("s", datum.NewInt(0))}}
	call(exec, false)
	allocs := testing.AllocsPerRun(50, func() { call(exec, true) })
	t.Logf("%.0f allocs per cached execute", allocs)
	if allocs >= cachedExecuteAllocBudget {
		t.Fatalf("a cached execute allocates %.0f times, budget %d", allocs, cachedExecuteAllocBudget)
	}

	// The budget has room for noise; the vector itself must cost nothing.
	q, err := qtree.BindSQL(text, srv.db.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	st := &stmt{preds: optimizer.ParamPreds(q), binds: []datum.Datum{datum.NewInt(10), datum.NewInt(0)}}
	if len(st.preds) != 2 {
		t.Fatalf("%d parameter predicates, want 2", len(st.preds))
	}
	if n := testing.AllocsPerRun(100, func() { st.buckets() }); n != 0 {
		t.Fatalf("computing the bucket vector allocates %.0f times", n)
	}
}

// TestDecisionStoreAcrossOneShots: two one-shot texts of one template miss
// the plan cache, and the second reuses the decisions the first one's
// search recorded in the server's store; the store's counters stay apart
// from the plan cache's, and ANALYZE empties the store.
func TestDecisionStoreAcrossOneShots(t *testing.T) {
	srv, addr, stop := startServer(t, Config{})
	defer stop()
	cli, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	// Two correlated multi-table subqueries: a two-object unnesting search.
	text := func(k int) string {
		return fmt.Sprintf(`SELECT e.employee_name, d.department_name FROM employees e, departments d
WHERE e.dept_id = d.dept_id
AND EXISTS (SELECT 1 FROM sales s0, departments ds0 WHERE s0.dept_id = ds0.dept_id AND s0.emp_id = e.emp_id AND s0.amount + %d < 100000)
AND NOT EXISTS (SELECT 1 FROM job_history j1, jobs jb1 WHERE j1.job_id = jb1.job_id AND j1.emp_id = e.emp_id AND j1.start_date > '19970101')`, k)
	}
	var want []string
	for k := 0; k < 2; k++ {
		rows, err := cli.Query(text(k))
		if err != nil {
			t.Fatal(err)
		}
		if k == 0 {
			want = rowStrings(rows)
		} else if got := rowStrings(rows); !equalStrs(got, want) {
			t.Fatalf("the reused plan returns %d rows, the searched one %d", len(got), len(want))
		}
	}
	m, _, err := cli.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m[cbqt.MetricDecisionHits] != 1 || m[cbqt.MetricDecisionMisses] != 1 || m[cbqt.MetricDecisionEntries] != 1 ||
		m[plancache.MetricHits] != 0 || m[plancache.MetricMisses] != 2 {
		t.Fatalf("decision store %d hits, %d misses, %d entries; plan cache %d hits, %d misses",
			m[cbqt.MetricDecisionHits], m[cbqt.MetricDecisionMisses], m[cbqt.MetricDecisionEntries],
			m[plancache.MetricHits], m[plancache.MetricMisses])
	}
	if err := cli.Analyze("employees"); err != nil {
		t.Fatal(err)
	}
	if n := srv.decisions.Len(); n != 0 {
		t.Fatalf("%d decision entries survive ANALYZE", n)
	}
}

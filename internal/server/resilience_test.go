package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cbqt"
	"repro/internal/datum"
	"repro/internal/faultinject"
	"repro/internal/obsv"
	"repro/internal/testkit/leakcheck"
)

// slowOpts makes every optimization take at least d: the heuristics fault
// site fires at least once per optimize. Executes whose texts differ (see
// empByDept) each miss the plan cache, so each becomes a d-long span, which
// is how these tests create real contention on the admission gate.
func slowOpts(d time.Duration) cbqt.Options {
	opts := cbqt.DefaultOptions()
	opts.Faults = faultinject.New(faultinject.Fault{
		Site: "heuristics", Kind: faultinject.KindDelay, Delay: d,
	})
	return opts
}

// slowStates delays every transformation-state evaluation by d, so a
// deadline-bounded search reliably expires mid-search under the full
// (DefaultOptions) strategy while an unbounded one still finishes.
func slowStates(d time.Duration) cbqt.Options {
	opts := cbqt.DefaultOptions()
	opts.Faults = faultinject.New(faultinject.Fault{
		Site: "state:*", Kind: faultinject.KindDelay, Delay: d,
	})
	return opts
}

// heavyQuery is a Table 2-shaped query (several unnestable subqueries):
// unlike a single flat EXISTS — which the heuristic pass absorbs — it
// drives the cost-based state search, so state:* fault sites fire and
// MemoStateBytes is nonzero.
const heavyQuery = `
SELECT e.employee_name, d.department_name
FROM employees e, departments d
WHERE e.dept_id = d.dept_id AND
  e.emp_id NOT IN (SELECT j.emp_id FROM job_history j, jobs jb
                   WHERE j.job_id = jb.job_id AND j.start_date > '20020101') AND
  EXISTS (SELECT 1 FROM sales s, departments d3
          WHERE s.dept_id = d3.dept_id AND s.emp_id = e.emp_id) AND
  NOT EXISTS (SELECT 1 FROM sales s2, jobs jb2, employees e4
              WHERE s2.emp_id = e4.emp_id AND e4.job_id = jb2.job_id AND s2.dept_id = e.dept_id AND s2.amount > 990)`

// empByDept is a one-parameter read whose n-th variant differs only in a
// column alias: each variant has its own plan-cache entry, so its first
// execute optimizes.
func empByDept(n int) string {
	return fmt.Sprintf("SELECT e.EMP_ID AS id%d FROM employees e WHERE e.DEPT_ID = :d", n)
}

// heavyQueryAs is heavyQuery with a column alias numbered n, for tests that
// need several executes to optimize.
func heavyQueryAs(n int) string {
	return strings.Replace(heavyQuery, "d.department_name", fmt.Sprintf("d.department_name AS dn%d", n), 1)
}

// TestAdmissionShedsWhenSaturated: with one inflight slot and no queue,
// concurrent executes beyond the slot are shed immediately with the typed,
// retryable OVERLOADED error — the server never queues unboundedly.
func TestAdmissionShedsWhenSaturated(t *testing.T) {
	leakcheck.Check(t)
	reg := obsv.NewRegistry()
	_, addr, stop := startServer(t, Config{
		Registry: reg, Opts: slowOpts(400 * time.Millisecond),
		MaxInflight: 1, MaxQueue: 0,
	})
	defer stop()

	run := func(n int) error {
		cli, err := Dial(addr, nil)
		if err != nil {
			return err
		}
		defer cli.Close()
		_, err = cli.Query(empByDept(n), Named("d", datum.NewInt(10)))
		return err
	}

	first := make(chan error, 1)
	go func() { first <- run(0) }()
	time.Sleep(150 * time.Millisecond) // the first query now holds the slot

	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i := range errs {
		wg.Add(1)
		go func(i int) { defer wg.Done(); errs[i] = run(i + 1) }(i)
	}
	wg.Wait()
	if err := <-first; err != nil {
		t.Fatalf("the admitted query failed: %v", err)
	}
	sheds := 0
	for _, err := range errs {
		if err == nil {
			continue // squeezed in after the first released its slot
		}
		var se *Error
		if !errors.As(err, &se) || se.Code != CodeOverloaded {
			t.Fatalf("saturated execute failed untyped: %v", err)
		}
		if !IsRetryable(err) {
			t.Fatalf("OVERLOADED must be retryable: %v", err)
		}
		sheds++
	}
	if sheds == 0 {
		t.Fatal("no concurrent request was shed at MaxInflight=1, MaxQueue=0")
	}
	if got := reg.CounterValue(MetricShedQueue); got == 0 {
		t.Fatal("server.shed.queue_full did not count the sheds")
	}
	if reg.CounterValue(MetricShed) < int64(sheds) {
		t.Fatalf("server.shed = %d, want >= %d", reg.CounterValue(MetricShed), sheds)
	}
}

// TestQueueWaitShed: a request that queues but cannot get a slot within
// QueueWait is shed with OVERLOADED rather than waiting forever.
func TestQueueWaitShed(t *testing.T) {
	leakcheck.Check(t)
	reg := obsv.NewRegistry()
	_, addr, stop := startServer(t, Config{
		Registry: reg, Opts: slowOpts(600 * time.Millisecond),
		MaxInflight: 1, MaxQueue: 4, QueueWait: 50 * time.Millisecond,
	})
	defer stop()

	first := make(chan error, 1)
	go func() {
		cli, err := Dial(addr, nil)
		if err != nil {
			first <- err
			return
		}
		defer cli.Close()
		_, err = cli.Query(empByDept(0), Named("d", datum.NewInt(10)))
		first <- err
	}()
	time.Sleep(150 * time.Millisecond)

	cli, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	start := time.Now()
	_, err = cli.Query(empByDept(1), Named("d", datum.NewInt(20)))
	waited := time.Since(start)
	if ErrorCode(err) != CodeOverloaded {
		t.Fatalf("queued past QueueWait: err = %v, want OVERLOADED", err)
	}
	if waited >= 400*time.Millisecond {
		t.Fatalf("shed took %v; the 50ms QueueWait did not bound the queue time", waited)
	}
	if reg.CounterValue(MetricShedWait) == 0 {
		t.Fatal("server.shed.queue_wait did not count the timed-out waiter")
	}
	if err := <-first; err != nil {
		t.Fatalf("slot-holding query failed: %v", err)
	}
}

// TestMemoryPressureShed: once the EWMA per-query memory estimate is primed,
// a span that would push reserved+estimated past the high-water mark is
// shed — but a span starting on an idle gate is always admitted, so the
// server recovers instead of wedging.
func TestMemoryPressureShed(t *testing.T) {
	leakcheck.Check(t)
	reg := obsv.NewRegistry()
	_, addr, stop := startServer(t, Config{
		Registry: reg, Opts: slowOpts(300 * time.Millisecond),
		MaxInflight: 4, MemHighWaterBytes: 1,
	})
	defer stop()

	cli, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	// Prime the estimate: the first query runs on a cold gate (estimate 0).
	// heavyQuery's state search is what makes MemoStateBytes nonzero.
	if _, err := cli.Query(heavyQueryAs(0)); err != nil {
		t.Fatal(err)
	}
	if reg.GaugeValue(MetricMemEstimated) <= 0 {
		t.Fatal("completed optimization did not feed the memory estimate")
	}

	// Hold the gate with one admitted span, then collide with it.
	holder := make(chan error, 1)
	go func() {
		h, err := Dial(addr, nil)
		if err != nil {
			holder <- err
			return
		}
		defer h.Close()
		_, err = h.Query(heavyQueryAs(1))
		holder <- err
	}()
	time.Sleep(150 * time.Millisecond)
	_, err = cli.Query(heavyQueryAs(2))
	if ErrorCode(err) != CodeOverloaded {
		t.Fatalf("concurrent query over the high-water mark: err = %v, want OVERLOADED", err)
	}
	if reg.CounterValue(MetricShedMem) == 0 {
		t.Fatal("server.shed.mem_pressure did not count the shed")
	}
	if err := <-holder; err != nil {
		t.Fatalf("admitted query failed: %v", err)
	}
	// Idle gate again: the same query is admitted even though the estimate
	// still exceeds the high-water mark (no permanent lockout).
	if _, err := cli.Query(heavyQueryAs(3)); err != nil {
		t.Fatalf("idle-gate query after pressure: %v", err)
	}
}

// rawSession is a bare wire-protocol peer for tests that need exact control
// over frames (no client-side deadlines or retries in the way).
type rawSession struct {
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
}

func rawDial(t *testing.T, addr string) *rawSession {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	rs := &rawSession{conn: conn, r: bufio.NewReader(conn), w: bufio.NewWriter(conn)}
	if resp := rs.call(t, &Request{Verb: VerbHello}); !resp.OK {
		t.Fatalf("hello: %s", resp.Error)
	}
	return rs
}

// close ends the session politely so a graceful server drain need not wait
// for the test's connection (net.Conn close alone races the drain).
func (rs *rawSession) close() {
	WriteFrame(rs.w, &Request{Verb: VerbClose})
	rs.w.Flush()
	rs.conn.Close()
}

func (rs *rawSession) send(t *testing.T, req *Request) {
	t.Helper()
	if err := WriteFrame(rs.w, req); err != nil {
		t.Fatal(err)
	}
	if err := rs.w.Flush(); err != nil {
		t.Fatal(err)
	}
}

func (rs *rawSession) call(t *testing.T, req *Request) *Response {
	t.Helper()
	rs.send(t, req)
	var resp Response
	if err := ReadFrame(rs.r, &resp); err != nil {
		t.Fatal(err)
	}
	return &resp
}

// TestDeadlinePropagation: the client's deadline rides the wire into the
// optimizer's budget, the span fails with a typed DEADLINE error, and —
// critically — the deadline-degraded optimization is never cached: the next
// caller optimizes fresh.
func TestDeadlinePropagation(t *testing.T) {
	leakcheck.Check(t)
	reg := obsv.NewRegistry()
	// Every transformation-state evaluation sleeps 60ms, so a 20ms deadline
	// always expires mid-search while an unbounded caller still finishes.
	_, addr, stop := startServer(t, Config{Registry: reg, Opts: slowStates(60 * time.Millisecond)})
	defer stop()

	rs := rawDial(t, addr)
	defer rs.close()
	// A prepared statement: only those add plans to the shared cache.
	prep := rs.call(t, &Request{Verb: VerbPrepare, SQL: heavyQuery})
	if !prep.OK {
		t.Fatalf("prepare: %s", prep.Error)
	}
	req := &Request{Verb: VerbExecute, Stmt: prep.Stmt}

	withDeadline := *req
	withDeadline.DeadlineMS = 20
	resp := rs.call(t, &withDeadline)
	if resp.OK || resp.Code != CodeDeadline {
		t.Fatalf("execute with a 20ms deadline: OK=%v code=%q err=%q, want DEADLINE", resp.OK, resp.Code, resp.Error)
	}
	if reg.CounterValue(MetricDeadlineExceeded) == 0 {
		t.Fatal("server.deadline_exceeded did not count the expiry")
	}

	// The failed, deadline-bounded optimization must not have poisoned the
	// shared cache: the next (unbounded) execute optimizes fresh...
	resp = rs.call(t, req)
	if !resp.OK {
		t.Fatalf("unbounded execute after deadline failure: %s", resp.Error)
	}
	if resp.Cached {
		t.Fatal("a deadline-degraded optimization was served from the plan cache")
	}
	// ...and only then is the full-quality plan shared.
	resp = rs.call(t, req)
	if !resp.OK || !resp.Cached {
		t.Fatalf("third execute: OK=%v Cached=%v, want cached plan", resp.OK, resp.Cached)
	}
}

// TestClientDeadlineCancelsQuery covers the client half of deadline
// propagation: a QueryContext past its budget fails with a typed DEADLINE
// error instead of hanging.
func TestClientDeadlineCancelsQuery(t *testing.T) {
	leakcheck.Check(t)
	_, addr, stop := startServer(t, Config{Opts: slowStates(60 * time.Millisecond)})
	defer stop()

	cli, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = cli.QueryContext(ctx, heavyQuery)
	if ErrorCode(err) != CodeDeadline {
		t.Fatalf("expired QueryContext: err = %v, want DEADLINE", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("deadline-bounded query took %v to fail", d)
	}
}

// TestIdleReapAndHeartbeat: a silent session is reaped at IdleTimeout, but
// heartbeat pings keep a deliberately idle session — and its cursors —
// alive through the same window.
func TestIdleReapAndHeartbeat(t *testing.T) {
	leakcheck.Check(t)
	reg := obsv.NewRegistry()
	const idle = 300 * time.Millisecond
	_, addr, stop := startServer(t, Config{Registry: reg, IdleTimeout: idle})
	defer stop()

	sql := "SELECT e.EMP_ID FROM employees e WHERE e.DEPT_ID = :d"

	// The heartbeating client spans 3 idle windows and survives.
	alive, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer alive.Close()
	stmt, err := alive.Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	if err := stmt.Execute(Named("d", datum.NewInt(10))); err != nil {
		t.Fatal(err)
	}

	// The silent client is reaped.
	dead, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}

	deadlineAt := time.Now().Add(3 * idle)
	for time.Now().Before(deadlineAt) {
		if err := alive.Ping(context.Background()); err != nil {
			t.Fatalf("heartbeat failed: %v", err)
		}
		time.Sleep(idle / 6)
	}

	// The heartbeated session still holds its prepared statement and cursor.
	if _, err := stmt.FetchAll(); err != nil {
		t.Fatalf("cursor did not survive heartbeated idleness: %v", err)
	}
	if reg.CounterValue(MetricIdleReaped) == 0 {
		t.Fatal("silent session was not reaped")
	}
	if reg.CounterValue(MetricPings) == 0 {
		t.Fatal("heartbeats were not counted")
	}
	// The reaped client's next call fails on the severed connection.
	if _, err := dead.Query(sql, Named("d", datum.NewInt(10))); err == nil {
		t.Fatal("query on a reaped session succeeded")
	}
	if !dead.Broken() {
		t.Fatal("reaped connection not marked broken client-side")
	}
}

// TestStalledReaderSeveredByWriteDeadline is the drain regression test: a
// peer that requests a huge fetch and then stops reading must not wedge a
// graceful Shutdown. The per-response write deadline severs the stalled
// session, bounding the drain.
func TestStalledReaderSeveredByWriteDeadline(t *testing.T) {
	leakcheck.Check(t)
	reg := obsv.NewRegistry()
	srv, addr, _ := startServer(t, Config{Registry: reg, WriteTimeout: 300 * time.Millisecond})

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A tiny receive window makes the server's multi-megabyte fetch
	// response block after a few KB.
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetReadBuffer(4 << 10)
	}
	rs := &rawSession{conn: conn, r: bufio.NewReader(conn), w: bufio.NewWriter(conn)}
	if resp := rs.call(t, &Request{Verb: VerbHello}); !resp.OK {
		t.Fatalf("hello: %s", resp.Error)
	}
	// The page must outgrow the socket buffers, or the write completes
	// into them and nothing stalls: the 40 000 rows of employees ×
	// employees make a 1.4 MB columnar page, which loopback buffers can
	// hold, so locations multiplies them.
	resp := rs.call(t, &Request{Verb: VerbExecute, SQL: `
		SELECT e.EMP_ID, e.EMPLOYEE_NAME, e.SALARY, e2.EMP_ID, e2.EMPLOYEE_NAME, e2.SALARY
		FROM employees e, employees e2, locations l`})
	if !resp.OK {
		t.Fatalf("cross-join execute: %s", resp.Error)
	}
	if resp.RowCount < 300000 {
		t.Fatalf("cross join produced %d rows; too small to stall a writer", resp.RowCount)
	}
	// Ask for the whole cursor in one frame, then never read a byte.
	rs.send(t, &Request{Verb: VerbFetch, Stmt: resp.Stmt, MaxRows: resp.RowCount})
	time.Sleep(100 * time.Millisecond) // let the server hit the full socket

	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain with a stalled reader: %v (took %v)", err, time.Since(start))
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("drain took %v; the write deadline did not bound the stall", d)
	}
	if reg.CounterValue(MetricWriteTimeouts) == 0 {
		t.Fatal("server.write_timeouts did not count the severed writer")
	}
	if reg.GaugeValue(MetricSessionsActive) != 0 {
		t.Fatalf("%d sessions survived the drain", reg.GaugeValue(MetricSessionsActive))
	}
}

// TestHandshakeFailureLeaksNothing: a dial whose handshake times out (the
// listener accepts but never answers hello) must close its socket — no
// file descriptor or goroutine may outlive the error.
func TestHandshakeFailureLeaksNothing(t *testing.T) {
	leakcheck.Check(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var mu sync.Mutex
	var held []net.Conn
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // accept and hold: the hello response never comes
		defer wg.Done()
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			held = append(held, c)
			mu.Unlock()
		}
	}()

	before := openFDs(t)
	for i := 0; i < 30; i++ {
		cli, err := DialWith(l.Addr().String(), DialOptions{HandshakeTimeout: 50 * time.Millisecond})
		if err == nil {
			cli.Close()
			t.Fatal("handshake against a mute listener succeeded")
		}
		if ErrorCode(err) != CodeDeadline {
			t.Fatalf("mute handshake error = %v, want DEADLINE", err)
		}
	}
	l.Close()
	wg.Wait()
	mu.Lock()
	for _, c := range held {
		c.Close()
	}
	mu.Unlock()

	after := openFDs(t)
	if after > before+3 {
		t.Fatalf("open fds grew from %d to %d across 30 failed handshakes", before, after)
	}
}

// openFDs counts this process's open file descriptors via /proc (the test
// suite only runs on Linux CI; skip elsewhere).
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc fd table: %v", err)
	}
	return len(ents)
}

// TestRetryOvercomesOverload: a client with a retry policy turns transient
// OVERLOADED sheds into a successful query via jittered backoff.
func TestRetryOvercomesOverload(t *testing.T) {
	leakcheck.Check(t)
	reg := obsv.NewRegistry()
	_, addr, stop := startServer(t, Config{
		Registry: reg, Opts: slowOpts(300 * time.Millisecond),
		MaxInflight: 1, MaxQueue: 0,
	})
	defer stop()

	holder := make(chan error, 1)
	go func() {
		h, err := Dial(addr, nil)
		if err != nil {
			holder <- err
			return
		}
		defer h.Close()
		_, err = h.Query(empByDept(0), Named("d", datum.NewInt(10)))
		holder <- err
	}()
	time.Sleep(100 * time.Millisecond)

	cli, err := DialRetry(addr, nil, RetryPolicy{
		MaxAttempts: 10, BaseBackoff: 40 * time.Millisecond, MaxBackoff: 150 * time.Millisecond, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	rows, err := cli.Query(empByDept(1), Named("d", datum.NewInt(20)))
	if err != nil {
		t.Fatalf("retrying query failed despite backoff: %v", err)
	}
	if len(rows) == 0 {
		t.Fatal("retried query returned no rows")
	}
	if err := <-holder; err != nil {
		t.Fatalf("slot-holding query failed: %v", err)
	}
	if reg.CounterValue(MetricShed) == 0 {
		t.Fatal("the retry path was never exercised: no request was shed")
	}
	if fmt.Sprint(reg.CounterValue(MetricAdmitted)) == "0" {
		t.Fatal("no request admitted")
	}
}

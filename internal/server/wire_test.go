package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/datum"
	"repro/internal/obsv"
	"repro/internal/testkit"
)

// overflowQuery returns +Inf for :x = 1e200.
const overflowQuery = `SELECT e.SALARY * :x * :x FROM employees e WHERE e.EMP_ID = 1`

// TestNonFiniteFloatResult: a result holding +Inf is an answer, not a
// connection failure. The peer receives the value, and the statement runs
// once — the dropped connection this used to cause read as a retryable
// reset.
func TestNonFiniteFloatResult(t *testing.T) {
	reg := obsv.NewRegistry()
	_, addr, stop := startServer(t, Config{Registry: reg})
	defer stop()

	cli, err := DialRetry(addr, nil, RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	rows, err := cli.Query(overflowQuery, Named("x", datum.NewFloat(1e200)))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].Kind() != datum.KFloat || !math.IsInf(rows[0][0].Float(), 1) {
		t.Fatalf("got %v, want one +Inf", rows)
	}
	if n := reg.CounterValue(MetricQueries); n != 1 {
		t.Fatalf("statement executed %d times, want 1", n)
	}
}

// TestUnencodableBindKeepsConnection: a bind the request encoding cannot
// carry fails before a byte is written, so it is a plain final error and
// the connection is still good.
func TestUnencodableBindKeepsConnection(t *testing.T) {
	_, addr, stop := startServer(t, Config{})
	defer stop()
	cli, err := DialRetry(addr, nil, RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	_, err = cli.Query(overflowQuery, Named("x", datum.NewFloat(math.Inf(1))))
	if err == nil || IsRetryable(err) || ErrorCode(err) != "" || cli.Broken() {
		t.Fatalf("err = %v (code %q, retryable %v), broken %v; want a plain error on a live connection",
			err, ErrorCode(err), IsRetryable(err), cli.Broken())
	}
	if rows, err := cli.Query(overflowQuery, Named("x", datum.NewFloat(2))); err != nil || len(rows) != 1 {
		t.Fatalf("next query on the same connection: %d rows, err %v", len(rows), err)
	}
}

// heapAlloc is the live heap after a collection.
func heapAlloc() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestAnnouncedFrameAllocatesNothing: four bytes from a peer that has not
// even said hello announce a MaxFrameBytes frame; the session must not
// allocate for the announcement, only for payload that arrives. The peers
// are net.Pipe ends, whose Write returns once the session has read the
// bytes: when the single payload byte is through, the session is past the
// frame header and waiting for the rest.
func TestAnnouncedFrameAllocatesNothing(t *testing.T) {
	srv := New(Config{DB: testkit.NewDB(testkit.SmallSizes(), 1), Registry: obsv.NewRegistry()})
	const peers = 8
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrameBytes)
	before := heapAlloc()
	var wg sync.WaitGroup
	var conns []net.Conn
	for i := 0; i < peers; i++ {
		peer, conn := net.Pipe()
		conns = append(conns, peer)
		sess := srv.register(conn)
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess.run()
		}()
		for _, b := range [][]byte{hdr[:], {'{'}} {
			if _, err := peer.Write(b); err != nil {
				t.Fatal(err)
			}
		}
	}
	grew := int64(heapAlloc()) - int64(before)
	for _, c := range conns {
		c.Close()
	}
	wg.Wait()
	if grew > 1<<20 {
		t.Fatalf("%d stalled peers announcing %d-byte frames grew the heap by %d bytes", peers, MaxFrameBytes, grew)
	}
}

// TestReadBodyGrowsWithArrival pins readBody's promise directly: what it
// has allocated is bounded by what has arrived, whatever was announced.
func TestReadBodyGrowsWithArrival(t *testing.T) {
	arrived := bytes.Repeat([]byte{'x'}, 100<<10)
	var buf []byte
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readBody(bytes.NewReader(arrived), &buf, MaxFrameBytes, "frame")
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want a short frame", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 4*uint64(len(arrived)) {
		t.Fatalf("allocated %d bytes for %d that arrived", got, len(arrived))
	}
	if _, err := readBody(bytes.NewReader(nil), &buf, MaxFrameBytes+1, "frame"); err == nil {
		t.Fatal("an announcement over the limit was accepted")
	}
}

// TestFetchRoundTripAllocBudget: a steady-state fetch allocates the rows it
// hands the caller and little else — not its payload, on either side. The
// budget is the decoded page (one Datum a value, one slice header a row, the
// page's bytes once for its strings) plus the control frames.
func TestFetchRoundTripAllocBudget(t *testing.T) {
	_, addr, stop := startServer(t, Config{DB: testkit.NewDB(pagedSizes(), 1)})
	defer stop()
	cli, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	st, err := cli.Prepare(`SELECT e.EMP_ID, e.EMPLOYEE_NAME, e.SALARY, e.DEPT_ID FROM employees e WHERE e.EMP_ID <= :n`)
	if err != nil {
		t.Fatal(err)
	}
	const pages, cols = 3, 4
	var spent uint64
	fetches := 0
	for iter := 0; iter < 6; iter++ {
		if err := st.Execute(Named("n", datum.NewInt(pages*DefaultFetchRows))); err != nil {
			t.Fatal(err)
		}
		if _, _, err := st.Fetch(0); err != nil { // the page the execute reply carried
			t.Fatal(err)
		}
		for p := 1; p < pages; p++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			rows, _, err := st.Fetch(DefaultFetchRows)
			runtime.ReadMemStats(&after)
			if err != nil || len(rows) != DefaultFetchRows {
				t.Fatalf("fetch: %d rows, err %v", len(rows), err)
			}
			if iter > 0 { // the first pass sizes the connection's buffers
				spent += after.TotalAlloc - before.TotalAlloc
				fetches++
			}
		}
	}
	// Per row: its values, its slice header, and its share of the page's
	// bytes copied once for the strings.
	const decoded = DefaultFetchRows * (cols*int(unsafe.Sizeof(datum.Datum{})) + 24 + 40)
	if per := spent / uint64(fetches); per > uint64(decoded)+4<<10 {
		t.Fatalf("a %d-row fetch allocates %d bytes across client and server; its rows are %d", DefaultFetchRows, per, decoded)
	}
}

// TestCursorReleasedWhenDone: the page that ends a cursor drops the
// executor's rows — on the execute reply's first page and on a fetch alike —
// and a fetch after that still answers empty and done. The session is
// driven through dispatch, so the statement table can be read in step.
func TestCursorReleasedWhenDone(t *testing.T) {
	srv := New(Config{DB: testkit.NewDB(pagedSizes(), 1), Registry: obsv.NewRegistry()})
	t.Run("columnar", func(t *testing.T) {
		ss := newSession(srv, 1, nil)
		do := func(req *Request) *Response {
			t.Helper()
			resp := ss.dispatch(req)
			if !resp.OK {
				t.Fatalf("%s: %s", req.Verb, resp.Error)
			}
			return resp
		}
		do(&Request{Verb: VerbHello})
		binds := func(n int64) []BindValue { return []BindValue{Named("n", datum.NewInt(n))} }

		// One-shot, whole on the first page.
		resp := do(&Request{Verb: VerbExecute, SQL: rangeQuery, Binds: binds(13), MaxRows: DefaultFetchRows})
		if !resp.Done || resp.RowCount != 13 || ss.stmts[0].cursor != nil {
			t.Fatalf("first page ended the cursor (done %v, %d rows) but %d rows stay referenced",
				resp.Done, resp.RowCount, len(ss.stmts[0].cursor))
		}
		if resp := do(&Request{Verb: VerbFetch}); !resp.Done || resp.Page > 2 {
			t.Fatalf("fetch after done: %+v", resp)
		}

		// Prepared, ended by a fetch.
		id := do(&Request{Verb: VerbPrepare, SQL: rangeQuery}).Stmt
		n := int64(DefaultFetchRows + 7)
		resp = do(&Request{Verb: VerbExecute, Stmt: id, Binds: binds(n), MaxRows: DefaultFetchRows})
		if resp.Done || len(ss.stmts[id].cursor) != int(n) {
			t.Fatalf("cursor of %d rows after its first page: done %v, %d rows held", n, resp.Done, len(ss.stmts[id].cursor))
		}
		resp = do(&Request{Verb: VerbFetch, Stmt: id})
		if !resp.Done || ss.stmts[id].cursor != nil {
			t.Fatalf("last fetch (done %v) left %d rows referenced", resp.Done, len(ss.stmts[id].cursor))
		}
		if resp := do(&Request{Verb: VerbFetch, Stmt: id}); !resp.Done || resp.Page > 2 {
			t.Fatalf("fetch after done: %+v", resp)
		}
		if got := ss.rowsSent.Load(); got != 13+n {
			t.Fatalf("rows sent %d, want %d", got, 13+n)
		}
	})
}

// TestColumnarPageOnTheWire reads a session's frames off a bare socket: a
// paged reply is a JSON control frame without rows whose page field counts
// the columnar bytes right behind it, and server.bytes_sent counts those
// bytes too.
func TestColumnarPageOnTheWire(t *testing.T) {
	_, addr, stop := startServer(t, Config{DB: testkit.NewDB(pagedSizes(), 1)})
	defer stop()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	sent := 0
	exchange := func(req *Request) (resp Response, rows [][]datum.Datum) {
		t.Helper()
		payload := rawExchange(t, conn, req)
		sent += 4 + len(payload)
		if err := json.Unmarshal(payload, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Rows != nil {
			t.Fatalf("JSON rows on the wire: %s", payload)
		}
		page := make([]byte, resp.Page)
		if _, err := io.ReadFull(conn, page); err != nil {
			t.Fatal(err)
		}
		sent += len(page)
		if resp.Page > 0 {
			if rows, err = decodePage(page); err != nil {
				t.Fatal(err)
			}
		}
		return resp, rows
	}
	if resp, _ := exchange(&Request{Verb: VerbHello}); !resp.OK {
		t.Fatalf("hello reply: %+v", resp)
	}
	resp, rows := exchange(&Request{Verb: VerbExecute, SQL: rangeQuery, MaxRows: 3, Binds: []BindValue{Named("n", datum.NewInt(5))}})
	if !resp.OK || resp.RowCount != 5 || resp.Done || len(rows) != 3 || rows[2][0].Int() != 3 {
		t.Fatalf("execute reply %+v with rows %v", resp, rows)
	}
	resp, rows = exchange(&Request{Verb: VerbFetch})
	if !resp.Done || len(rows) != 2 || rows[1][0].Int() != 5 {
		t.Fatalf("fetch reply %+v with rows %v", resp, rows)
	}
	if resp, rows = exchange(&Request{Verb: VerbFetch}); !resp.Done || len(rows) != 0 {
		t.Fatalf("fetch past the end %+v with rows %v", resp, rows)
	}
	before := sent
	m, _ := exchange(&Request{Verb: VerbMetrics})
	if got := m.Metrics[MetricBytesSent]; got != int64(before) {
		t.Fatalf("%s = %d before the metrics reply, the socket carried %d", MetricBytesSent, got, before)
	}
}

package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"net"
	"testing"

	"repro/internal/datum"
	"repro/internal/testkit"
)

// rangeQuery returns EMP_ID 1..n: the knob the page-boundary tests turn.
const rangeQuery = `SELECT e.EMP_ID FROM employees e WHERE e.EMP_ID <= :n`

// pagedSizes has more employees than one page, so cursors can outgrow it.
func pagedSizes() testkit.Sizes {
	s := testkit.SmallSizes()
	s.Employees = 3 * DefaultFetchRows
	return s
}

// sessionCounts reads the counters the first page must keep honest.
func sessionCounts(t *testing.T, cli *Client) (fetches, rowsSent, srvFetches, srvRowsSent int64) {
	t.Helper()
	m, sess, err := cli.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	return sess.Fetches, sess.RowsSent, m[MetricFetches], m[MetricRowsSent]
}

// TestFirstPageServedBeforeFetch: a 13-row result arrives whole on the
// execute reply; Fetch(2) hands out 2 of those rows, FetchAll the other 11,
// and the server never sees a fetch verb — yet counts all 13 rows as sent.
func TestFirstPageServedBeforeFetch(t *testing.T) {
	t.Run("columnar", func(t *testing.T) {
		_, addr, stop := startServer(t, Config{DB: testkit.NewDB(pagedSizes(), 1)})
		defer stop()
		cli, err := Dial(addr, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		st, err := cli.Prepare(rangeQuery)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Execute(Named("n", datum.NewInt(13))); err != nil {
			t.Fatal(err)
		}
		first, done, err := st.Fetch(2)
		if err != nil || len(first) != 2 || done {
			t.Fatalf("Fetch(2) = %d rows, done %v, err %v; want 2 rows of 13, not done", len(first), done, err)
		}
		rest, err := st.FetchAll()
		if err != nil || len(rest) != 11 {
			t.Fatalf("FetchAll after Fetch(2) = %d rows, err %v; want the other 11", len(rest), err)
		}
		seen := map[int64]bool{}
		for _, r := range append(first, rest...) {
			seen[r[0].Int()] = true
		}
		if len(seen) != 13 {
			t.Fatalf("pages overlap or drop rows: %d distinct EMP_IDs of 13", len(seen))
		}
		if batch, done, err := st.Fetch(0); err != nil || len(batch) != 0 || !done {
			t.Fatalf("Fetch on the exhausted cursor = %d rows, done %v, err %v", len(batch), done, err)
		}
		fetches, rowsSent, srvFetches, srvRowsSent := sessionCounts(t, cli)
		if fetches != 0 || srvFetches != 0 {
			t.Fatalf("fetch verbs counted: session %d, server %d; the page was inlined, want 0", fetches, srvFetches)
		}
		if rowsSent != 13 || srvRowsSent != 13 {
			t.Fatalf("rows sent: session %d, server %d; want the 13 inlined rows", rowsSent, srvRowsSent)
		}
	})
}

// TestFirstPageBoundary: DefaultFetchRows rows complete in the execute
// round trip; one more row costs exactly one fetch for the second page.
func TestFirstPageBoundary(t *testing.T) {
	t.Run("columnar", func(t *testing.T) {
		_, addr, stop := startServer(t, Config{DB: testkit.NewDB(pagedSizes(), 1)})
		defer stop()
		cli, err := Dial(addr, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		st, err := cli.Prepare(rangeQuery)
		if err != nil {
			t.Fatal(err)
		}
		var wantFetches, wantRows int64
		for _, tc := range []struct{ n, fetches int }{
			{DefaultFetchRows, 0},
			{DefaultFetchRows + 1, 1},
			{2*DefaultFetchRows + 1, 2},
		} {
			if err := st.Execute(Named("n", datum.NewInt(int64(tc.n)))); err != nil {
				t.Fatal(err)
			}
			rows, err := st.FetchAll()
			if err != nil || len(rows) != tc.n || st.RowCount != tc.n {
				t.Fatalf("n=%d: drained %d rows (RowCount %d), err %v", tc.n, len(rows), st.RowCount, err)
			}
			wantFetches += int64(tc.fetches)
			wantRows += int64(tc.n)
			fetches, rowsSent, _, _ := sessionCounts(t, cli)
			if fetches != wantFetches || rowsSent != wantRows {
				t.Fatalf("n=%d: session fetches %d rows_sent %d, want %d and %d", tc.n, fetches, rowsSent, wantFetches, wantRows)
			}
			// The one-shot path pages the same way.
			one, err := cli.Query(rangeQuery, Named("n", datum.NewInt(int64(tc.n))))
			if err != nil || len(one) != tc.n {
				t.Fatalf("n=%d: Query returned %d rows, err %v", tc.n, len(one), err)
			}
			wantFetches += int64(tc.fetches)
			wantRows += int64(tc.n)
		}
	})
}

// rawExchange sends one request over a bare connection and returns the
// response frame's payload bytes.
func rawExchange(t *testing.T, conn net.Conn, req *Request) []byte {
	t.Helper()
	if err := WriteFrame(conn, req); err != nil {
		t.Fatal(err)
	}
	var hdr [4]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, binary.BigEndian.Uint32(hdr[:]))
	if _, err := io.ReadFull(conn, payload); err != nil {
		t.Fatal(err)
	}
	return payload
}

// TestExecuteWithoutFirstPageUnchanged is the compatibility rule: a peer
// whose execute does not set MaxRows gets, byte for byte, the execute frame
// the protocol always sent — no page and no done flag — and every row is
// paged by fetch verbs; a mutation's reply never carries rows even when its
// execute asks for a page.
func TestExecuteWithoutFirstPageUnchanged(t *testing.T) {
	_, addr, stop := startServer(t, Config{DB: testkit.NewDB(pagedSizes(), 1)})
	defer stop()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	rawExchange(t, conn, &Request{Verb: VerbHello})

	binds := []BindValue{Named("n", datum.NewInt(5))}
	got := rawExchange(t, conn, &Request{Verb: VerbExecute, SQL: rangeQuery, Binds: binds})
	var resp Response
	if err := json.Unmarshal(got, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.OK || resp.RowCount != 5 || resp.Page != 0 || resp.Done {
		t.Fatalf("execute without MaxRows: %s", got)
	}
	want, _ := json.Marshal(&Response{OK: true, SQL: resp.SQL, Cached: resp.Cached, RowCount: 5, Params: []string{"N"}})
	if !bytes.Equal(got, want) {
		t.Fatalf("execute reply changed for a peer that did not ask for a page:\n got %s\nwant %s", got, want)
	}
	fetch := func(req *Request) (bool, [][]datum.Datum) {
		t.Helper()
		var reply Response
		if err := json.Unmarshal(rawExchange(t, conn, req), &reply); err != nil {
			t.Fatal(err)
		}
		page := make([]byte, reply.Page)
		if _, err := io.ReadFull(conn, page); err != nil {
			t.Fatal(err)
		}
		rows, err := decodePage(page)
		if err != nil {
			t.Fatal(err)
		}
		return reply.Done, rows
	}
	if done, rows := fetch(&Request{Verb: VerbFetch, MaxRows: 3}); len(rows) != 3 || rows[2][0].Int() != 3 || done {
		t.Fatalf("first fetch after a pageless execute: rows %v, done %v; want rows 1-3 of 5", rows, done)
	}
	if done, rows := fetch(&Request{Verb: VerbFetch}); len(rows) != 2 || rows[1][0].Int() != 5 || !done {
		t.Fatalf("second fetch: rows %v, done %v; want the last 2, done", rows, done)
	}

	got = rawExchange(t, conn, &Request{Verb: VerbExecute, MaxRows: DefaultFetchRows,
		SQL: "INSERT INTO LOCATIONS VALUES (9001, 'utrecht', 'NL')"})
	resp = Response{}
	if err := json.Unmarshal(got, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.OK || resp.Affected != 1 || resp.Page != 0 || resp.Done {
		t.Fatalf("mutation reply carries cursor fields: %s", got)
	}

	var m Response
	if err := json.Unmarshal(rawExchange(t, conn, &Request{Verb: VerbMetrics}), &m); err != nil {
		t.Fatal(err)
	}
	if m.Session.Fetches != 2 || m.Session.RowsSent != 5 {
		t.Fatalf("session counted %d fetches, %d rows sent; want 2 and 5", m.Session.Fetches, m.Session.RowsSent)
	}
}

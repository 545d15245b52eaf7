package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"time"

	"repro/internal/datum"
)

// DefaultHandshakeTimeout bounds Dial's TCP connect plus hello exchange
// when DialOptions.HandshakeTimeout is zero, so a blackholed server cannot
// hang a connecting client (and leak its socket) forever.
const DefaultHandshakeTimeout = 10 * time.Second

// RetryPolicy configures the client's automatic retry of retryable
// failures (OVERLOADED sheds and connection resets before a response
// frame): capped attempts with exponential backoff and full jitter
// (sleep drawn uniformly from [0, min(MaxBackoff, BaseBackoff<<attempt))).
// The zero RetryPolicy disables retries.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries (<= 1: no retries).
	MaxAttempts int
	// BaseBackoff seeds the exponential backoff (default 10ms when
	// MaxAttempts > 1 and BaseBackoff is zero).
	BaseBackoff time.Duration
	// MaxBackoff caps one backoff sleep (default 1s).
	MaxBackoff time.Duration
	// Seed drives the jitter's private random source, so tests are
	// reproducible (0 behaves as 1).
	Seed int64
}

// DefaultRetryPolicy suits a client of a loaded server: 4 attempts,
// 10ms–500ms full-jitter backoff.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 4, BaseBackoff: 10 * time.Millisecond, MaxBackoff: 500 * time.Millisecond}
}

// backoff returns the jittered sleep before retry attempt (0-based).
func (p RetryPolicy) backoff(attempt int, rng *rand.Rand) time.Duration {
	base := p.BaseBackoff
	if base <= 0 {
		base = 10 * time.Millisecond
	}
	maxB := p.MaxBackoff
	if maxB <= 0 {
		maxB = time.Second
	}
	d := base << uint(attempt)
	if d > maxB || d <= 0 {
		d = maxB
	}
	return time.Duration(rng.Int63n(int64(d) + 1))
}

// DialOptions configure a client beyond the session's optimizer options.
type DialOptions struct {
	// Session carries the per-session optimizer options for the hello
	// exchange (nil = server defaults).
	Session *SessionOptions
	// Retry enables automatic retries (zero = none).
	Retry RetryPolicy
	// HandshakeTimeout bounds connect+hello (0 = DefaultHandshakeTimeout).
	HandshakeTimeout time.Duration
	// CallTimeout is the default per-call deadline applied when a call's
	// context has none (0 = no default deadline).
	CallTimeout time.Duration
}

// Client is the Go-side of the wire protocol, used by cmd/cbqt's connect
// mode, the benchmarks and the tests. A Client is one session; it is not
// safe for concurrent use (open one client per goroutine, as an
// application would open one connection per worker).
//
// Transport failures mark the connection broken and close it immediately —
// no file descriptor outlives the error that killed it. A broken client
// with a retry policy redials transparently on the next one-shot call;
// prepared statements do not survive a redial and must be re-prepared.
type Client struct {
	addr string
	dop  DialOptions
	rng  *rand.Rand

	conn   net.Conn
	r      *bufio.Reader
	broken bool
	// out holds the request being written, in the response frame or page
	// being read; both are reused from one call to the next.
	out, in []byte
}

// Dial connects to a cbqtd server and performs the hello exchange.
func Dial(addr string, opts *SessionOptions) (*Client, error) {
	return DialWith(addr, DialOptions{Session: opts})
}

// DialRetry is Dial with automatic retries for subsequent calls (the dial
// itself is attempted once; retrying a dead address is the caller's call).
func DialRetry(addr string, opts *SessionOptions, policy RetryPolicy) (*Client, error) {
	return DialWith(addr, DialOptions{Session: opts, Retry: policy})
}

// DialWith connects with full client configuration.
func DialWith(addr string, dop DialOptions) (*Client, error) {
	seed := dop.Retry.Seed
	if seed == 0 {
		seed = 1
	}
	c := &Client{addr: addr, dop: dop, rng: rand.New(rand.NewSource(seed))}
	if err := c.connect(); err != nil {
		return nil, err
	}
	return c, nil
}

// connect (re)establishes the TCP connection and the hello exchange under
// the handshake timeout. Every error path closes the socket.
func (c *Client) connect() error {
	hs := c.dop.HandshakeTimeout
	if hs <= 0 {
		hs = DefaultHandshakeTimeout
	}
	conn, err := net.DialTimeout("tcp", c.addr, hs)
	if err != nil {
		return &Error{Code: CodeConnReset, Msg: fmt.Sprintf("dial %s: %v", c.addr, err), Err: err}
	}
	c.conn, c.r = conn, bufio.NewReader(conn)
	c.broken = false
	conn.SetDeadline(time.Now().Add(hs))
	_, err = c.roundTrip(&Request{Verb: VerbHello, Options: c.dop.Session})
	conn.SetDeadline(time.Time{})
	if err != nil {
		c.fail() // close the socket: no leaked fd on a failed handshake
		return err
	}
	return nil
}

// fail marks the connection broken and closes it immediately.
func (c *Client) fail() {
	c.broken = true
	if c.conn != nil {
		c.conn.Close()
	}
}

// Broken reports whether the client's connection has failed (a retrying
// one-shot call will redial; everything else errors until Close).
func (c *Client) Broken() bool { return c.broken }

// reply is one response as the client's calls see it: the control fields
// and the rows of the result page it carried.
type reply struct {
	Response
	rows [][]datum.Datum
}

// roundTrip sends one request and reads its response, turning server-side
// errors into typed *Error values. Transport failures are classified:
// failures before any response byte arrived are CONN_RESET (retryable for
// this protocol's read-only statements), mid-frame failures CONN_BROKEN,
// deadline expiries DEADLINE. Any transport failure closes the connection.
// A request that cannot be encoded never reached the transport: it fails
// with a plain error and the connection stays usable.
func (c *Client) roundTrip(req *Request) (*reply, error) {
	if c.broken {
		return nil, &Error{Code: CodeConnReset, Msg: "connection already broken"}
	}
	out, err := appendFrame(c.out[:0], req)
	if err != nil {
		return nil, err
	}
	c.out = out
	if _, err := c.conn.Write(out); err != nil {
		c.fail()
		return nil, transportError(err, true)
	}
	var rep reply
	if err := readFrame(c.r, &c.in, &rep.Response); err != nil {
		c.fail()
		// readFrame wraps mid-frame failures ("short frame"); a bare
		// error means the 4-byte header never arrived, i.e. the reset
		// happened before the first response byte.
		beforeResponse := !errors.Is(err, io.ErrUnexpectedEOF) && !isWrapped(err)
		return nil, transportError(err, beforeResponse)
	}
	if !rep.OK {
		code := rep.Code
		if code == "" {
			code = CodeError
		}
		return &rep, &Error{Code: code, Msg: rep.Error}
	}
	if rep.Page == 0 {
		return &rep, nil
	}
	// The frame announced a columnar page behind it. Failing to read it is
	// a transport failure like any other mid-response; a page that arrived
	// whole but does not decode leaves the stream in step.
	page, err := readBody(c.r, &c.in, rep.Page, "page")
	if err != nil {
		c.fail()
		return nil, transportError(err, false)
	}
	rep.rows, err = decodePage(page)
	return &rep, err
}

// roundTripCtx is roundTrip under a context: a context deadline becomes
// the connection deadline, so a blackholed or stalled server fails the
// call with a typed DEADLINE error instead of hanging it.
func (c *Client) roundTripCtx(ctx context.Context, req *Request) (*reply, error) {
	if c.broken {
		return nil, &Error{Code: CodeConnReset, Msg: "connection already broken"}
	}
	if d, ok := ctx.Deadline(); ok {
		c.conn.SetDeadline(d)
		defer c.conn.SetDeadline(time.Time{})
	}
	return c.roundTrip(req)
}

// isWrapped reports whether the frame error came from inside a frame
// (ReadFrame's decorated errors) rather than the bare header read.
func isWrapped(err error) bool {
	s := err.Error()
	return len(s) > 8 && s[:8] == "server: "
}

// transportError wraps a client-side transport failure as a typed *Error.
// Write failures and resets before the response header count as
// before-response (CONN_RESET, retryable); a frame that started but never
// finished is CONN_BROKEN.
func transportError(err error, beforeResponse bool) *Error {
	switch {
	case errors.Is(err, os.ErrDeadlineExceeded):
		return &Error{Code: CodeDeadline, Msg: err.Error(), Err: err}
	case beforeResponse:
		return &Error{Code: CodeConnReset, Msg: err.Error(), Err: err}
	}
	return &Error{Code: CodeConnBroken, Msg: err.Error(), Err: err}
}

// callContext applies the client's default per-call timeout when ctx has
// no deadline of its own.
func (c *Client) callContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if _, ok := ctx.Deadline(); !ok && c.dop.CallTimeout > 0 {
		return context.WithTimeout(ctx, c.dop.CallTimeout)
	}
	return ctx, func() {}
}

// deadlineMS converts a context deadline into the wire's remaining-budget
// field (0 = none; an already-expired deadline becomes 1ms and fails fast
// on the server).
func deadlineMS(ctx context.Context) int64 {
	d, ok := ctx.Deadline()
	if !ok {
		return 0
	}
	ms := time.Until(d).Milliseconds()
	if ms < 1 {
		ms = 1
	}
	return ms
}

// attempts is the retry budget for one logical call.
func (c *Client) attempts() int {
	if c.dop.Retry.MaxAttempts > 1 {
		return c.dop.Retry.MaxAttempts
	}
	return 1
}

// sleepBackoff waits out one jittered backoff, honoring ctx.
func (c *Client) sleepBackoff(ctx context.Context, attempt int) error {
	t := time.NewTimer(c.dop.Retry.backoff(attempt, c.rng))
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return &Error{Code: CodeDeadline, Msg: "canceled during retry backoff", Err: ctx.Err()}
	}
}

// Stmt is a prepared statement handle.
type Stmt struct {
	c      *Client
	id     int64
	Params []string
	// RowCount and SQL describe the last execute: cursor size and the
	// transformed query text. Cached reports whether the plan came from
	// the shared cache. Affected is the row count when the statement is a
	// mutation (RowCount is then zero — mutations open an empty cursor).
	RowCount int
	SQL      string
	Cached   bool
	Affected int
	// page is what remains of the first page the last execute returned on
	// its own reply; done reports that this page ends the cursor.
	page [][]datum.Datum
	done bool
}

// Prepare parses and binds the query on the server, returning a statement
// handle with its discovered parameter names.
func (c *Client) Prepare(sql string) (*Stmt, error) {
	resp, err := c.roundTrip(&Request{Verb: VerbPrepare, SQL: sql})
	if err != nil {
		return nil, err
	}
	return &Stmt{c: c, id: resp.Stmt, Params: resp.Params}, nil
}

// Bind sets parameter values without executing (the wire bind verb).
func (s *Stmt) Bind(binds ...BindValue) error {
	_, err := s.c.roundTrip(&Request{Verb: VerbBind, Stmt: s.id, Binds: binds})
	return err
}

// Execute optimizes (through the shared plan cache) and runs the
// statement, opening a cursor. Binds passed here are applied first, on top
// of any earlier Bind calls. The reply carries the cursor's first
// DefaultFetchRows rows, which Fetch serves before going back to the
// server: a result that fits one page costs one round trip.
func (s *Stmt) Execute(binds ...BindValue) error {
	return s.ExecuteContext(context.Background(), binds...)
}

// ExecuteContext is Execute with a deadline: the context's remaining
// budget rides the wire and bounds the server-side optimize+execute.
// OVERLOADED sheds are retried (the connection is intact and the handle
// still valid); transport failures are not — a redial would orphan the
// statement id.
func (s *Stmt) ExecuteContext(ctx context.Context, binds ...BindValue) error {
	ctx, cancel := s.c.callContext(ctx)
	defer cancel()
	for attempt := 0; ; attempt++ {
		resp, err := s.c.roundTripCtx(ctx, &Request{
			Verb: VerbExecute, Stmt: s.id, Binds: binds, DeadlineMS: deadlineMS(ctx), MaxRows: DefaultFetchRows,
		})
		if err == nil {
			s.RowCount = resp.RowCount
			s.SQL = resp.SQL
			s.Cached = resp.Cached
			s.Affected = resp.Affected
			s.page, s.done = resp.rows, resp.Done
			return nil
		}
		if attempt+1 >= s.c.attempts() || ErrorCode(err) != CodeOverloaded {
			return err
		}
		if berr := s.c.sleepBackoff(ctx, attempt); berr != nil {
			return err
		}
	}
}

// Fetch returns the next batch of at most maxRows rows (server default
// when <= 0) and whether the cursor is exhausted. Rows that arrived with
// the execute reply are handed out first, without a round trip.
func (s *Stmt) Fetch(maxRows int) ([][]datum.Datum, bool, error) {
	if len(s.page) > 0 || s.done {
		n := len(s.page)
		if maxRows > 0 && maxRows < n {
			n = maxRows
		}
		rows := s.page[:n:n]
		s.page = s.page[n:]
		return rows, s.done && len(s.page) == 0, nil
	}
	resp, err := s.c.roundTrip(&Request{Verb: VerbFetch, Stmt: s.id, MaxRows: maxRows})
	if err != nil {
		return nil, false, err
	}
	return resp.rows, resp.Done, nil
}

// FetchAll drains the cursor.
func (s *Stmt) FetchAll() ([][]datum.Datum, error) {
	var all [][]datum.Datum
	for {
		batch, done, err := s.Fetch(0)
		if err != nil {
			return all, err
		}
		all = append(all, batch...)
		if done {
			return all, nil
		}
	}
}

// Close drops the statement on the server.
func (s *Stmt) Close() error {
	_, err := s.c.roundTrip(&Request{Verb: VerbCloseStmt, Stmt: s.id})
	return err
}

// Query is the one-shot convenience: prepare + execute + drain + close in
// a single wire exchange, plus fetches when the result outgrows the first
// page carried on the execute reply. Its plan is not cached for later
// calls: Prepare a statement that runs more than once.
func (c *Client) Query(sql string, binds ...BindValue) ([][]datum.Datum, error) {
	return c.QueryContext(context.Background(), sql, binds...)
}

// QueryContext is Query with a deadline and the full retry loop: the
// context's remaining budget rides the wire as the server-side deadline
// and bounds the transport; retryable failures — OVERLOADED sheds and
// connection resets before a response frame — are retried with
// exponential backoff and full jitter, redialing when the connection
// broke. Queries over this protocol are read-only, so a retried request
// at worst re-executes a SELECT.
func (c *Client) QueryContext(ctx context.Context, sql string, binds ...BindValue) ([][]datum.Datum, error) {
	ctx, cancel := c.callContext(ctx)
	defer cancel()
	var lastErr error
	for attempt := 0; attempt < c.attempts(); attempt++ {
		if attempt > 0 {
			if berr := c.sleepBackoff(ctx, attempt-1); berr != nil {
				return nil, lastErr
			}
		}
		if c.broken {
			if err := c.connect(); err != nil {
				lastErr = err
				if IsRetryable(err) && ctx.Err() == nil {
					continue
				}
				return nil, err
			}
		}
		rows, err := c.queryOnce(ctx, sql, binds)
		if err == nil {
			return rows, nil
		}
		lastErr = err
		if !IsRetryable(err) || ctx.Err() != nil {
			return nil, err
		}
	}
	return nil, lastErr
}

// queryOnce runs one one-shot execute+fetch attempt.
func (c *Client) queryOnce(ctx context.Context, sql string, binds []BindValue) ([][]datum.Datum, error) {
	resp, err := c.roundTripCtx(ctx, &Request{
		Verb: VerbExecute, SQL: sql, Binds: binds, DeadlineMS: deadlineMS(ctx), MaxRows: DefaultFetchRows,
	})
	if err != nil {
		return nil, err
	}
	all := resp.rows
	for done := resp.Done; !done; {
		fresp, err := c.roundTripCtx(ctx, &Request{Verb: VerbFetch, Stmt: resp.Stmt})
		if err != nil {
			return nil, err
		}
		all = append(all, fresp.rows...)
		done = fresp.Done
	}
	return all, nil
}

// Exec runs one mutation statement (INSERT/UPDATE/DELETE) and returns its
// affected-row count.
func (c *Client) Exec(sql string, binds ...BindValue) (int, error) {
	return c.ExecContext(context.Background(), sql, binds...)
}

// ExecContext is Exec with a deadline. Unlike QueryContext, only
// OVERLOADED sheds are retried: a shed request never reached execution,
// but a connection that broke mid-call may have committed the write, and
// blindly re-running it would apply the mutation twice.
func (c *Client) ExecContext(ctx context.Context, sql string, binds ...BindValue) (int, error) {
	ctx, cancel := c.callContext(ctx)
	defer cancel()
	for attempt := 0; ; attempt++ {
		resp, err := c.roundTripCtx(ctx, &Request{
			Verb: VerbExecute, SQL: sql, Binds: binds, DeadlineMS: deadlineMS(ctx),
		})
		if err == nil {
			return resp.Affected, nil
		}
		if attempt+1 >= c.attempts() || ErrorCode(err) != CodeOverloaded || ctx.Err() != nil {
			return 0, err
		}
		if berr := c.sleepBackoff(ctx, attempt); berr != nil {
			return 0, err
		}
	}
}

// Ping sends a heartbeat frame, resetting the server's idle timer for
// this session. Idle clients that want to keep cursors alive across an
// IdleTimeout-configured server ping periodically.
func (c *Client) Ping(ctx context.Context) error {
	_, err := c.roundTripCtx(ctx, &Request{Verb: VerbPing})
	return err
}

// Analyze re-collects statistics for table ("" = all tables), bumping the
// catalog version and invalidating stale cached plans server-side.
func (c *Client) Analyze(table string) error {
	_, err := c.roundTrip(&Request{Verb: VerbAnalyze, Table: table})
	return err
}

// Metrics snapshots the server registry and this session's counters.
func (c *Client) Metrics() (map[string]int64, *SessionStats, error) {
	resp, err := c.roundTrip(&Request{Verb: VerbMetrics})
	if err != nil {
		return nil, nil, err
	}
	return resp.Metrics, resp.Session, nil
}

// Close ends the session politely and closes the connection. A broken
// connection is already closed; Close is then a no-op.
func (c *Client) Close() error {
	if c.broken {
		return nil
	}
	_, rtErr := c.roundTrip(&Request{Verb: VerbClose})
	closeErr := c.conn.Close()
	if rtErr != nil {
		return rtErr
	}
	return closeErr
}

// Named builds a named bind value.
func Named(name string, d datum.Datum) BindValue {
	return BindValue{Name: name, Value: EncodeDatum(d)}
}

// Positional builds an unnamed bind value (fills parameters in order).
func Positional(d datum.Datum) BindValue {
	return BindValue{Value: EncodeDatum(d)}
}

package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/cbqt"
	"repro/internal/datum"
	"repro/internal/exec"
	"repro/internal/optimizer"
	"repro/internal/plancache"
	"repro/internal/qtree"
	"repro/internal/sql"
)

// cachedPlan is the value stored in the shared plan cache: the physical
// plan plus everything a session needs to execute it without re-binding.
// Mutation statements cache too: dml carries the bound statement and plan
// holds its locating/source query's physical plan (nil for the
// INSERT ... VALUES form, which has no read query).
type cachedPlan struct {
	plan   *optimizer.Plan
	params []string // parameter names in ordinal order
	sql    string   // transformed query text
	dml    *qtree.DMLStmt
}

// stmt is one prepared statement within a session.
type stmt struct {
	id     int64
	sql    string
	norm   string   // normalized cache-key text
	tmpl   string   // its template, the decision store's key text
	params []string // parameter names from prepare-time binding
	binds  []datum.Datum
	bound  []bool
	// preds are the parameter predicates whose selectivity buckets key the
	// statement's plan variants (none, or more than a bucket vector holds:
	// it runs its blind variant only).
	preds []optimizer.ParamPred
	// tree is the statement as prepare bound it, kept for the first plan
	// lookup, which takes it: a miss optimizes this tree instead of binding
	// the text again. Optimization mutates a tree, so it serves one lookup;
	// a later miss (after an ANALYZE or an eviction) binds the text anew.
	tree any
	// cursor is the materialized result of the last execute (the
	// executor's rows, not a copy); execute's first page and fetch page it,
	// and the page that ends it drops it.
	cursor []exec.Row
	pos    int
	open   bool
}

// session serves one connection. Frames are read by a dedicated reader
// goroutine (readLoop) so a peer that vanishes mid-request cancels the
// session context — and with it the in-flight optimize/execute — instead
// of burning optimizer states for a closed socket. Dispatch and response
// writes stay on the session goroutine; only Shutdown touches the
// connection from outside (to sever it).
type session struct {
	srv  *Server
	id   int64
	conn net.Conn
	r    *bufio.Reader
	// in is readLoop's frame buffer. out is the response being written and
	// page the columnar page nextPage encoded for it; all three are reused
	// from one request to the next.
	in, out, page []byte

	ctx    context.Context
	cancel context.CancelFunc
	// done is closed when the dispatch loop exits, releasing a readLoop
	// blocked on delivering a frame.
	done chan struct{}

	opts     cbqt.Options
	strategy string // plan-cache strategy fingerprint

	stmts    map[int64]*stmt
	nextStmt int64

	prepared  atomic.Int64
	executes  atomic.Int64
	cacheHits atomic.Int64
	fetches   atomic.Int64
	rowsSent  atomic.Int64
	shed      atomic.Int64
	deadlines atomic.Int64
}

func newSession(s *Server, id int64, conn net.Conn) *session {
	ctx, cancel := context.WithCancel(context.Background())
	return &session{
		srv:      s,
		id:       id,
		conn:     conn,
		r:        bufio.NewReader(conn),
		ctx:      ctx,
		cancel:   cancel,
		done:     make(chan struct{}),
		opts:     s.opts,
		strategy: strategyFingerprint(s.opts),
		stmts:    map[int64]*stmt{},
	}
}

// frameMsg is one reader-goroutine delivery: a request or a terminal read
// error, never both.
type frameMsg struct {
	req Request
	err error
}

// run is the session's request loop: one frame in, one frame out, until
// the peer closes, sends the close verb, a wire error occurs, or the idle
// timeout reaps the session.
func (ss *session) run() {
	defer func() {
		ss.cancel()
		close(ss.done)
		ss.conn.Close()
		ss.srv.unregister(ss.id)
	}()
	frames := make(chan frameMsg)
	go ss.readLoop(frames)

	var idleC <-chan time.Time
	var idle *time.Timer
	if d := ss.srv.idleTimeout; d > 0 {
		idle = time.NewTimer(d)
		defer idle.Stop()
		idleC = idle.C
	}
	for {
		var fm frameMsg
		select {
		case fm = <-frames:
		case <-idleC:
			// The peer sent nothing — not even a heartbeat — for the
			// whole idle window: reap the session so a dead client
			// cannot pin cursors through a graceful drain.
			ss.srv.idleReaped.Inc()
			return
		}
		if fm.err != nil {
			if !errors.Is(fm.err, io.EOF) && !errors.Is(fm.err, net.ErrClosed) {
				ss.srv.errorsCtr.Inc()
			}
			return
		}
		resp := ss.dispatch(&fm.req)
		if err := ss.writeResponse(resp); err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				ss.srv.writeTimeouts.Inc()
			}
			ss.srv.errorsCtr.Inc()
			return
		}
		if fm.req.Verb == VerbClose {
			return
		}
		if idle != nil {
			if !idle.Stop() {
				select {
				case <-idle.C:
				default:
				}
			}
			idle.Reset(ss.srv.idleTimeout)
		}
	}
}

// readLoop owns the connection's read side. A read error — the peer reset,
// vanished, or sent garbage — cancels the session context first, so any
// optimize or execute in flight on the dispatch goroutine stops at its
// next cancellation poll, then delivers the error to the dispatch loop.
func (ss *session) readLoop(frames chan<- frameMsg) {
	for {
		var req Request
		if err := readFrame(ss.r, &ss.in, &req); err != nil {
			ss.cancel()
			select {
			case frames <- frameMsg{err: err}:
			case <-ss.done:
			}
			return
		}
		select {
		case frames <- frameMsg{req: req}:
		case <-ss.done:
			return
		}
	}
}

// writeResponse sends one frame — and, behind it in the same write, the
// columnar page it announces — under the server's write deadline, so a
// peer that stops reading severs its own session instead of blocking the
// writer (and a graceful drain behind it) forever.
func (ss *session) writeResponse(resp *Response) error {
	out, err := appendFrame(ss.out[:0], resp)
	if err != nil {
		return err
	}
	if resp.Page > 0 {
		out = append(out, ss.page...)
	}
	if d := ss.srv.writeTimeout; d > 0 {
		ss.conn.SetWriteDeadline(time.Now().Add(d))
	}
	n, err := ss.conn.Write(out)
	ss.srv.bytesSent.Add(int64(n))
	if err != nil {
		return err
	}
	if ss.srv.writeTimeout > 0 {
		ss.conn.SetWriteDeadline(time.Time{})
	}
	ss.out = out
	if cap(ss.out) > maxKeptBuffer {
		ss.out, ss.page = nil, nil
	}
	return nil
}

func (ss *session) dispatch(req *Request) *Response {
	var resp *Response
	var err error
	switch req.Verb {
	case VerbHello:
		resp, err = ss.hello(req)
	case VerbPrepare:
		resp, err = ss.prepare(req)
	case VerbBind:
		resp, err = ss.bind(req)
	case VerbExecute:
		resp, err = ss.execute(req)
	case VerbFetch:
		resp, err = ss.fetch(req)
	case VerbCloseStmt:
		resp, err = ss.closeStmt(req)
	case VerbAnalyze:
		resp, err = ss.analyze(req)
	case VerbMetrics:
		resp, err = ss.metrics(req)
	case VerbPing:
		ss.srv.pings.Inc()
		resp = &Response{}
	case VerbClose:
		resp = &Response{}
	default:
		err = fmt.Errorf("server: unknown verb %q", req.Verb)
	}
	if err != nil {
		ss.srv.errorsCtr.Inc()
		code := codeOf(err)
		switch code {
		case CodeOverloaded:
			ss.shed.Add(1)
		case CodeDeadline:
			ss.deadlines.Add(1)
			ss.srv.deadlinesCtr.Inc()
		}
		// A typed error's text would double its code ("OVERLOADED:
		// OVERLOADED: ...") once the client re-wraps the frame; send the
		// bare message.
		msg := err.Error()
		var we *Error
		if errors.As(err, &we) {
			msg = we.Msg
		}
		return &Response{Error: msg, Code: code}
	}
	resp.OK = true
	return resp
}

func (ss *session) hello(req *Request) (*Response, error) {
	opts, fp, err := ss.srv.sessionOpts(req.Options)
	if err != nil {
		return nil, err
	}
	ss.opts = opts
	ss.strategy = fp
	return &Response{Stmt: ss.id}, nil
}

func (ss *session) prepare(req *Request) (*Response, error) {
	if ss.srv.Draining() {
		return nil, ErrDraining
	}
	st, err := ss.newStmt(req.SQL)
	if err != nil {
		return nil, err
	}
	ss.stmts[st.id] = st
	ss.prepared.Add(1)
	return &Response{Stmt: st.id, Params: st.params}, nil
}

// newStmt parses and binds the text, which discovers its parameters and
// surfaces syntax and semantic errors at prepare time. The bound tree stays
// on the statement for its first plan lookup. Queries and mutations both
// prepare here; the statement kind is resolved again at plan time from the
// cached entry.
func (ss *session) newStmt(src string) (*stmt, error) {
	bound, err := ss.parseBind(src)
	if err != nil {
		return nil, err
	}
	var params []string
	var read *qtree.Query
	switch v := bound.(type) {
	case *qtree.Query:
		params, read = v.Params, v
	case *qtree.DMLStmt:
		params, read = v.Params, v.Read
	}
	var preds []optimizer.ParamPred
	if len(params) > 0 && read != nil {
		preds = optimizer.ParamPreds(read)
	}
	ss.nextStmt++
	norm, tmpl := plancache.NormalizeTemplate(src)
	return &stmt{
		id:     ss.nextStmt,
		sql:    src,
		norm:   norm,
		tmpl:   tmpl,
		params: params,
		binds:  make([]datum.Datum, len(params)),
		bound:  make([]bool, len(params)),
		preds:  preds,
		tree:   bound,
	}, nil
}

// buckets is the bucket vector of the statement's current binds: one
// estimate per parameter predicate, from the current statistics; the blind
// vector when the statement has more than a vector holds.
func (st *stmt) buckets() plancache.Buckets {
	b, _ := optimizer.Bucketize(st.preds, st.binds)
	return b
}

// parseBind parses and binds one statement's text: a *qtree.Query or a
// *qtree.DMLStmt.
func (ss *session) parseBind(src string) (any, error) {
	parsed, err := sql.ParseStatement(src)
	if err != nil {
		return nil, err
	}
	return qtree.BindStatement(parsed, ss.srv.db.Catalog)
}

func (ss *session) lookup(id int64) (*stmt, error) {
	st, ok := ss.stmts[id]
	if !ok {
		return nil, fmt.Errorf("server: no prepared statement %d", id)
	}
	return st, nil
}

// applyBinds sets parameter values on st: named values match parameters
// case-insensitively, unnamed values fill ordinals left to right.
func applyBinds(st *stmt, binds []BindValue) error {
	next := 0
	for _, b := range binds {
		d, err := b.Value.Decode()
		if err != nil {
			return err
		}
		ord := -1
		if b.Name == "" {
			for next < len(st.params) && st.bound[next] {
				next++
			}
			if next >= len(st.params) {
				return fmt.Errorf("server: too many positional binds (%d parameters)", len(st.params))
			}
			ord = next
		} else {
			want := strings.ToUpper(b.Name)
			for i, n := range st.params {
				if n == want {
					ord = i
					break
				}
			}
			if ord < 0 {
				return fmt.Errorf("server: no parameter :%s (have %s)", b.Name, strings.Join(st.params, ", "))
			}
		}
		st.binds[ord] = d
		st.bound[ord] = true
	}
	return nil
}

func (ss *session) bind(req *Request) (*Response, error) {
	st, err := ss.lookup(req.Stmt)
	if err != nil {
		return nil, err
	}
	if err := applyBinds(st, req.Binds); err != nil {
		return nil, err
	}
	return &Response{Stmt: st.id}, nil
}

func (ss *session) execute(req *Request) (*Response, error) {
	if ss.srv.Draining() {
		return nil, ErrDraining
	}
	st := (*stmt)(nil)
	var err error
	if req.Stmt != 0 {
		if st, err = ss.lookup(req.Stmt); err != nil {
			return nil, err
		}
	} else {
		// One-shot execute: implicit prepare, not retained after the
		// cursor is materialized below.
		if st, err = ss.newStmt(req.SQL); err != nil {
			return nil, err
		}
		ss.nextStmt-- // id not consumed
		st.id = 0
	}
	if err := applyBinds(st, req.Binds); err != nil {
		return nil, err
	}
	var missing []string
	for i, ok := range st.bound {
		if !ok {
			missing = append(missing, ":"+st.params[i])
		}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("server: unbound parameters %s", strings.Join(missing, ", "))
	}

	// The client-supplied deadline bounds the whole optimize+execute span:
	// it rides into the optimizer's budget tracker (which degrades the
	// search when it nears) and the executor's cancellation polling.
	ctx := ss.ctx
	if req.DeadlineMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.DeadlineMS)*time.Millisecond)
		defer cancel()
	}

	// Admission control gates the expensive span. Shed requests cost the
	// server nothing but this typed response.
	release, err := ss.srv.adm.acquire(ctx)
	if err != nil {
		return nil, err
	}
	defer release()

	cp, cached, err := ss.plan(ctx, st)
	if err != nil {
		return nil, err
	}
	if len(cp.params) != len(st.binds) {
		return nil, fmt.Errorf("server: plan expects %d parameters, statement has %d", len(cp.params), len(st.binds))
	}

	// Every statement executes against its own MVCC snapshot: reads see
	// one consistent version of every table for the whole run, and writers
	// commit concurrently without blocking anyone (the old DDL RWMutex is
	// gone — ANALYZE and index builds read snapshots like everything else).
	affected := 0
	if cp.dml != nil {
		dres, err := exec.RunDML(ctx, ss.srv.db, cp.dml, cp.plan, st.binds, exec.Options{})
		if err != nil {
			return nil, err
		}
		affected = dres.Affected
		st.cursor = nil
	} else {
		res, err := exec.RunParams(ctx, ss.srv.db, cp.plan, st.binds)
		if err != nil {
			return nil, err
		}
		st.cursor = res.Rows
	}
	st.pos = 0
	st.open = true
	if st.id == 0 {
		// One-shot statements live at id 0 so the client can fetch the
		// cursor; the next one-shot replaces it.
		ss.stmts[0] = st
	}
	ss.executes.Add(1)
	ss.srv.queries.Inc()
	if cached {
		ss.cacheHits.Add(1)
	}
	resp := &Response{Stmt: st.id, SQL: cp.sql, Cached: cached, RowCount: len(st.cursor), Affected: affected, Params: cp.params}
	if req.MaxRows > 0 && cp.dml == nil {
		// The peer asked for the first page on this reply: a result that
		// fits it is complete in one round trip. A peer that did not ask
		// gets exactly the frame it always got.
		if err := ss.nextPage(st, req.MaxRows, resp); err != nil {
			return nil, err
		}
	}
	return resp, nil
}

// nextPage puts up to n rows from the statement's cursor on resp as one
// columnar page, advances the cursor and counts the rows as sent. The page
// that exhausts the cursor sets Done and releases the executor's rows; a
// later fetch answers empty and Done. On error nothing has moved.
func (ss *session) nextPage(st *stmt, n int, resp *Response) error {
	rows := st.cursor[st.pos:]
	if n < len(rows) {
		rows = rows[:n]
	}
	var err error
	if ss.page, err = appendPage(ss.page[:0], rows); err != nil {
		return err
	}
	resp.Page = len(ss.page)
	st.pos += len(rows)
	ss.rowsSent.Add(int64(len(rows)))
	ss.srv.rowsSent.Add(int64(len(rows)))
	if resp.Done = st.pos >= len(st.cursor); resp.Done {
		st.cursor, st.pos = nil, 0
	}
	return nil
}

// plan resolves the statement's physical plan through the shared cache.
// The catalog stats version in the key is an atomic read: an ANALYZE
// racing this lookup may cache a plan one stats generation newer than its
// key says — still a correct plan (statistics only steer cost), and the
// next Invalidate sweeps it.
// The data version deliberately stays out of the key: snapshots keep a
// cached plan correct under any amount of concurrent write churn.
// The lookup takes the statement's bound tree, hit or miss, so the tree is
// optimized at most once and a hit does not keep it alive.
// The key carries the bucket vector of the binds: a miss on a bucket variant
// optimizes with the estimator reading these binds, a miss on the blind
// variant (no parameter predicates, or the statement's variant bound
// reached) without.
func (ss *session) plan(ctx context.Context, st *stmt) (*cachedPlan, bool, error) {
	key := plancache.Key{
		SQL:      st.norm,
		Strategy: ss.strategy,
		Version:  ss.srv.db.Catalog.Version(),
		Buckets:  st.buckets(),
	}
	tree := st.tree
	st.tree = nil
	// Coalesced waiters share the computing caller's context: if that
	// caller's deadline degrades or fails the optimization, the error is
	// returned to every waiter and nothing is cached.
	v, shared, err := ss.srv.cache.GetOrComputeVariant(key, func(k plancache.Key) (any, error) {
		var binds []datum.Datum
		if k.Buckets != (plancache.Buckets{}) {
			binds = st.binds
		}
		return ss.optimize(ctx, st.sql, st.tmpl, tree, binds)
	})
	if err != nil {
		return nil, false, err
	}
	cp, ok := v.(*cachedPlan)
	if !ok {
		return nil, false, fmt.Errorf("server: plan cache holds %T for %q, want *cachedPlan", v, st.norm)
	}
	return cp, shared, nil
}

// optimize runs CBQT over one statement's bound tree, parsing and binding
// src first when there is none (a prepared statement optimized again after
// its tree was used); tmpl is src's template. binds, when non-nil, are the values the estimator
// reads (cbqt.Optimizer.Binds). The search reuses the decisions the server's
// store holds for the statement's template and literal buckets
// (cbqt.NewDecisionKey), each checked by cost against the untransformed
// state. Mutations go through the same optimizer: their
// locating/source query is an ordinary bound query that the cost-based
// transformer plans like any SELECT, so an UPDATE's subquery predicate gets
// unnested exactly as it would in a read, and the DML contract (ROWID
// locating query, target arity/types) is validated around that search, so a
// malformed statement fails here instead of addressing arbitrary rows in
// the executor. A request whose deadline expires mid-search fails here with
// the context error rather than returning the degraded plan: the query
// could not make its deadline anyway, and a plan degraded by one caller's
// deadline must never be cached for everyone else.
func (ss *session) optimize(ctx context.Context, src, tmpl string, tree any, binds []datum.Datum) (*cachedPlan, error) {
	if tree == nil {
		var err error
		if tree, err = ss.parseBind(src); err != nil {
			return nil, err
		}
	}
	o := &cbqt.Optimizer{Cat: ss.srv.db.Catalog, Opts: ss.opts, Binds: binds, Decisions: ss.srv.decisions}
	keyBy := func(q *qtree.Query) {
		if o.Decisions != nil && q != nil {
			o.DecisionKey = cbqt.NewDecisionKey(tmpl, q, ss.strategy, binds)
		}
	}
	var cp *cachedPlan
	var res *cbqt.Result
	var err error
	switch v := tree.(type) {
	case *qtree.Query:
		cp = &cachedPlan{params: v.Params}
		keyBy(v)
		res, err = o.OptimizeContext(ctx, v)
	case *qtree.DMLStmt:
		cp = &cachedPlan{params: v.Params, sql: src, dml: v}
		keyBy(v.Read)
		res, err = o.OptimizeDML(ctx, v)
	default:
		return nil, fmt.Errorf("server: unknown bound statement %T", tree)
	}
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		return nil, err
	}
	ss.srv.adm.observe(res.Stats.MemoStateBytes)
	if res.Plan != nil { // nil for INSERT ... VALUES, which reads nothing
		cp.plan, cp.sql = res.Plan, res.Query.SQL()
	}
	return cp, nil
}

func (ss *session) fetch(req *Request) (*Response, error) {
	st, err := ss.lookup(req.Stmt)
	if err != nil {
		return nil, err
	}
	if !st.open {
		return nil, fmt.Errorf("server: statement %d has no open cursor", st.id)
	}
	n := req.MaxRows
	if n <= 0 {
		n = DefaultFetchRows
	}
	resp := &Response{Stmt: st.id}
	if err := ss.nextPage(st, n, resp); err != nil {
		return nil, err
	}
	ss.fetches.Add(1)
	ss.srv.fetches.Inc()
	return resp, nil
}

func (ss *session) closeStmt(req *Request) (*Response, error) {
	st, err := ss.lookup(req.Stmt)
	if err != nil {
		return nil, err
	}
	delete(ss.stmts, st.id)
	return &Response{Stmt: st.id}, nil
}

// analyze re-collects statistics and sweeps now-stale plans from the
// shared cache. No lock: ANALYZE reads its own MVCC snapshot and publishes
// stats atomically, so concurrent queries and writers never wait on it.
func (ss *session) analyze(req *Request) (*Response, error) {
	if ss.srv.Draining() {
		return nil, ErrDraining
	}
	if err := ss.srv.db.AnalyzeTable(req.Table); err != nil {
		return nil, err
	}
	version := ss.srv.db.Catalog.Version()
	ss.srv.cache.Invalidate(version)
	if ss.srv.decisions != nil {
		ss.srv.decisions.Invalidate(version)
	}
	return &Response{}, nil
}

func (ss *session) metrics(*Request) (*Response, error) {
	snap := ss.srv.reg.Snapshot()
	m := make(map[string]int64, len(snap.Counters)+len(snap.Gauges))
	for k, v := range snap.Counters {
		m[k] = v
	}
	for k, v := range snap.Gauges {
		m[k] = v
	}
	return &Response{Metrics: m, Session: ss.stats()}, nil
}

func (ss *session) stats() *SessionStats {
	return &SessionStats{
		ID:        ss.id,
		Prepared:  ss.prepared.Load(),
		Executes:  ss.executes.Load(),
		CacheHits: ss.cacheHits.Load(),
		Fetches:   ss.fetches.Load(),
		RowsSent:  ss.rowsSent.Load(),
		Shed:      ss.shed.Load(),
		Deadlines: ss.deadlines.Load(),
	}
}

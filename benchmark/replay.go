package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/catalog"
	"repro/internal/cbqt"
	"repro/internal/datum"
	"repro/internal/exec"
	"repro/internal/obsv"
	"repro/internal/optimizer"
	"repro/internal/plancache"
	"repro/internal/qtree"
	"repro/internal/server"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/transform"
)

// span is one timed call into a layer. Spans of one statement share stmt;
// parent is the id of the span that was open when this one began (0 for a
// statement's root and for probes).
type span struct {
	Stmt   int    `json:"stmt"`
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the replay ends.
// With on false, begin and end do nothing, which is the untraced pass the
// tracing overhead is measured against.
type tracer struct {
	on    bool
	t0    time.Time
	stmt  int
	spans []span
	open  []int // indexes into spans
}

func (t *tracer) begin(name string) {
	if !t.on {
		return
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	t.open = append(t.open, len(t.spans))
	t.spans = append(t.spans, span{Stmt: t.stmt, ID: len(t.spans) + 1, Name: name, Parent: parent, Start: int64(time.Since(t.t0))})
}

func (t *tracer) end() {
	if !t.on {
		return
	}
	n := len(t.open) - 1
	t.spans[t.open[n]].End = int64(time.Since(t.t0))
	t.open = t.open[:n]
}

// Span names. The part before the first dot is the layer (the package).
const (
	spanStmt       = "stmt" // a statement's root; its self time is harness glue
	spanWire       = "server.wire"
	spanLookup     = "plancache.lookup"
	spanParse      = "sql.parse"
	spanBind       = "qtree.bind"
	spanSearch     = "cbqt.search"
	spanRun        = "exec.run"
	probeHeuristic = "probe.transform.heuristics"
	probePlan      = "probe.optimizer.plan"
	probeCommit    = "probe.storage.commit"
)

// selfTimes sums, per span name, each span's duration minus the part its
// direct children cover.
func selfTimes(spans []span) map[string]time.Duration {
	covered := make(map[int]int64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += time.Duration(s.End - s.Start - covered[s.ID])
	}
	return out
}

// replayPlan is what the replay caches per statement text, like the
// server's cachedPlan.
type replayPlan struct {
	plan   *optimizer.Plan
	params []string
	dml    *qtree.DMLStmt
}

// replayCounts are the work counts of one traced pass; for a seed they
// repeat exactly.
type replayCounts struct {
	stmts, rowsReturned, rowBytes int64
	optimized                     int64 // statements that missed the plan cache
	states, blocks, memoBytes     int64
	costHits, costMisses          int64
	batchRows                     int64
	commits, fsyncs, walBytes     int64
	userBytes                     int64
}

// replayer executes a workload's statements in-process, one goroutine, in
// the order session.execute uses, timing each call into a layer's public
// functions from outside.
type replayer struct {
	w     *workload
	db    *storage.DB
	reg   *obsv.Registry
	cache *plancache.Cache
	opts  cbqt.Options
	names [][]string
	tr    tracer
	pipe  bytes.Buffer
	n     replayCounts
	// roots are the traced statements' wall times; wall sums every
	// statement's, traced or not.
	roots []time.Duration
	wall  time.Duration
	// pending probe inputs of the statement just executed.
	probeSQL    string
	probeWinner *qtree.Query
}

// newReplayer opens the replay database: the shared demo rows for a memory
// workload, a fresh disk engine seeded like cbqtd seeds its own otherwise.
func newReplayer(w *workload, dataDir string) (*replayer, error) {
	r := &replayer{w: w, reg: obsv.NewRegistry(), db: demoDB(w.size)}
	if w.store == "disk" {
		cat := catalog.New()
		eng, err := storage.OpenDiskEngine(dataDir, cat)
		if err != nil {
			return nil, err
		}
		r.db = storage.NewDBWithEngine(cat, eng)
		if err := storage.Mirror(demoDB(w.size), r.db); err != nil {
			return nil, err
		}
		r.db.Metrics(r.reg)
	}
	r.cache = plancache.New(0, r.reg)
	// One worker keeps the search's block and hit counts independent of
	// scheduling, so they repeat exactly.
	r.opts = cbqt.DefaultOptions()
	r.opts.Parallelism = 1
	r.opts.Metrics = r.reg
	for _, sd := range w.stmts {
		r.names = append(r.names, paramNames(sd.sql))
	}
	return r, nil
}

func (r *replayer) close() error {
	if r.w.store == "disk" {
		return r.db.Close()
	}
	return nil
}

// frame sends msg through the in-memory pipe and decodes it on the other
// side, as one request or response crossing the wire.
func (r *replayer) frame(msg, into any) (int, error) {
	r.pipe.Reset()
	if err := server.WriteFrame(&r.pipe, msg); err != nil {
		return 0, err
	}
	n := r.pipe.Len()
	return n, server.ReadFrame(&r.pipe, into)
}

// run executes operations [from, to).
func (r *replayer) run(from, to int) error {
	for i := from; i < to; i++ {
		if err := r.one(i); err != nil {
			return fmt.Errorf("replay op %d: %w", i, err)
		}
	}
	return nil
}

func (r *replayer) one(i int) error {
	o := r.w.op(i)
	text, names := o.sql, []string(nil)
	req := server.Request{Verb: server.VerbExecute, SQL: o.sql}
	var sd stmtDef
	if o.stmt >= 0 {
		sd = r.w.stmts[o.stmt]
		text, names = sd.sql, r.names[o.stmt]
		req = server.Request{Verb: server.VerbExecute, Stmt: int64(o.stmt + 1)}
		for k, d := range o.binds {
			req.Binds = append(req.Binds, server.Named(names[k], d))
		}
	}
	r.probeSQL, r.probeWinner = "", nil
	r.tr.stmt = i
	start := time.Now()
	r.tr.begin(spanStmt)

	// The execute request crosses the wire and its binds are decoded.
	r.tr.begin(spanWire)
	var gotReq server.Request
	_, err := r.frame(&req, &gotReq)
	binds := make([]datum.Datum, len(gotReq.Binds))
	for k, b := range gotReq.Binds {
		if err == nil {
			binds[k], err = b.Value.Decode()
		}
	}
	r.tr.end()
	if err != nil {
		return err
	}

	// A one-shot execute prepares implicitly: parse and bind to discover
	// the parameters, then normalize the text for the cache key. A
	// prepared statement did that once, at prepare time.
	if o.stmt < 0 {
		if _, err := r.parseBind(text); err != nil {
			return err
		}
	}
	r.tr.begin(spanLookup)
	norm := sd.sql // stands in for the text normalized at prepare time
	if o.stmt < 0 {
		norm = plancache.Normalize(text)
	}
	key := plancache.Key{SQL: norm, Strategy: r.opts.Strategy.String(), Version: r.db.Catalog.Version()}
	v, _, err := r.cache.GetOrCompute(key, func() (any, error) { return r.optimize(text) })
	r.tr.end()
	if err != nil {
		return err
	}
	rp := v.(*replayPlan)
	params, err := orderParams(rp.params, names, binds)
	if err != nil {
		return err
	}

	var rows []exec.Row
	resp := server.Response{OK: true, Stmt: req.Stmt, Params: rp.params}
	r.tr.begin(spanRun)
	if rp.dml != nil {
		before := r.walCounters()
		var res *exec.DMLResult
		res, err = exec.RunDML(context.Background(), r.db, rp.dml, rp.plan, params, exec.Options{Metrics: r.reg})
		if err == nil {
			resp.Affected = res.Affected
			if res.Affected != o.affected {
				err = fmt.Errorf("affected %d, want %d", res.Affected, o.affected)
			}
		}
		r.addWAL(before, o)
	} else {
		var res *exec.Result
		res, err = exec.RunParamsWith(context.Background(), r.db, rp.plan, params, exec.Options{Metrics: r.reg})
		if err == nil {
			rows = res.Rows
			resp.RowCount = len(rows)
		}
	}
	r.tr.end()
	if err != nil {
		return err
	}

	// The execute response, then the cursor paged out: each page is a
	// fetch request and a response whose rows are encoded on one side and
	// decoded on the other.
	r.tr.begin(spanWire)
	var gotResp server.Response
	if _, err = r.frame(&resp, &gotResp); err == nil && rp.dml == nil {
		err = r.fetch(req.Stmt, rows, sd.page)
	}
	r.tr.end()
	r.tr.end() // the statement
	if err != nil {
		return err
	}
	took := time.Since(start)
	r.wall += took
	if r.tr.on {
		r.roots = append(r.roots, took)
		r.n.stmts++
		r.n.rowsReturned += int64(len(rows))
	}
	return r.probes(o)
}

func (r *replayer) fetch(stmt int64, rows []exec.Row, page int) error {
	if page <= 0 {
		page = server.DefaultFetchRows
	}
	for pos := 0; ; {
		end := min(pos+page, len(rows))
		var gotReq server.Request
		if _, err := r.frame(&server.Request{Verb: server.VerbFetch, Stmt: stmt, MaxRows: page}, &gotReq); err != nil {
			return err
		}
		batch := make([][]server.WireDatum, 0, end-pos)
		for _, row := range rows[pos:end] {
			batch = append(batch, server.EncodeRow(row))
		}
		var got server.Response
		n, err := r.frame(&server.Response{OK: true, Stmt: stmt, Rows: batch, Done: end == len(rows)}, &got)
		if err != nil {
			return err
		}
		for _, wr := range got.Rows {
			for _, wd := range wr {
				if _, err := wd.Decode(); err != nil {
					return err
				}
			}
		}
		if r.tr.on {
			r.n.rowBytes += int64(n)
		}
		if pos = end; pos == len(rows) {
			return nil
		}
	}
}

func (r *replayer) parseBind(text string) (any, error) {
	r.tr.begin(spanParse)
	parsed, err := sql.ParseStatement(text)
	r.tr.end()
	if err != nil {
		return nil, err
	}
	r.tr.begin(spanBind)
	bound, err := qtree.BindStatement(parsed, r.db.Catalog)
	r.tr.end()
	return bound, err
}

// optimize is the plan-cache miss path: parse, bind and the CBQT search.
func (r *replayer) optimize(text string) (*replayPlan, error) {
	bound, err := r.parseBind(text)
	if err != nil {
		return nil, err
	}
	o := &cbqt.Optimizer{Cat: r.db.Catalog, Opts: r.opts}
	rp := &replayPlan{}
	var res *cbqt.Result
	r.tr.begin(spanSearch)
	switch b := bound.(type) {
	case *qtree.Query:
		res, err = o.OptimizeContext(context.Background(), b)
		if err == nil {
			rp.plan, rp.params = res.Plan, res.Query.Params
		}
	case *qtree.DMLStmt:
		res, err = o.OptimizeDML(context.Background(), b)
		if err == nil {
			rp.plan, rp.params, rp.dml = res.Plan, b.Params, b
		}
	}
	r.tr.end()
	if err != nil {
		return nil, err
	}
	if r.tr.on {
		r.n.optimized++
		r.n.states += int64(res.Stats.StatesEvaluated)
		r.n.blocks += int64(res.Stats.BlocksOptimized)
		r.n.memoBytes += res.Stats.MemoStateBytes
		r.n.costHits += res.Stats.CacheHits
		r.n.costMisses += res.Stats.CacheMisses
	}
	if res.Query != nil {
		r.probeSQL, r.probeWinner = text, res.Query
	}
	return rp, nil
}

type walCounters struct{ commits, fsyncs, bytes int64 }

func (r *replayer) walCounters() walCounters {
	return walCounters{
		commits: r.reg.CounterValue("storage.mvcc.commits"),
		fsyncs:  r.reg.CounterValue("storage.wal.fsyncs"),
		bytes:   r.reg.CounterValue("storage.wal.bytes"),
	}
}

func (r *replayer) addWAL(before walCounters, o op) {
	if !r.tr.on {
		return
	}
	after := r.walCounters()
	r.n.commits += after.commits - before.commits
	r.n.fsyncs += after.fsyncs - before.fsyncs
	r.n.walBytes += after.bytes - before.bytes
	r.n.userBytes += userBytes(o)
}

// userBytes is the payload a write hands the store: eight bytes a number,
// a string's length. An update writes a whole new row version; a delete
// names one key.
func userBytes(o op) int64 {
	vals := o.binds
	if len(vals) == 2 { // update: amount, key
		vals = salesRow(int(vals[1].Int()))
	}
	n := int64(0)
	for _, d := range vals {
		if d.Kind() == datum.KString {
			n += int64(len(d.Str()))
		} else {
			n += 8
		}
	}
	return n
}

// probeKeyShift moves the storage probe's rows clear of every key the
// workload uses.
const probeKeyShift = 500_000_000

// probes time, outside the statement's root span, the calls that cannot be
// separated inside it from out here: the heuristic phase and the winner's
// physical plan (both inside cbqt.search), and the store's commit of as
// many rows as the write wrote (inside exec.run).
func (r *replayer) probes(o op) error {
	if !r.tr.on {
		return nil
	}
	if r.probeWinner != nil {
		fresh, err := qtree.BindSQL(r.probeSQL, r.db.Catalog)
		if err == nil { // a DML text does not bind as a query; its read query has no probe
			r.tr.begin(probeHeuristic)
			err = transform.ApplyHeuristics(fresh)
			r.tr.end()
			if err != nil {
				return err
			}
		}
		winner, _ := r.probeWinner.Clone()
		r.tr.begin(probePlan)
		_, err = optimizer.New(r.db.Catalog).Optimize(winner)
		r.tr.end()
		if err != nil {
			return err
		}
	}
	if o.stmt >= 0 && r.w.stmts[o.stmt].write {
		r.tr.begin(probeCommit)
		b := r.db.NewBatch()
		var err error
		for k := 0; k < max(o.affected, 1) && err == nil; k++ {
			err = b.Insert("SALES", salesRow(probeKeyShift+freshKey(r.tr.stmt)+k))
		}
		if err == nil {
			_, err = r.db.Commit(b)
		}
		r.tr.end()
		return err
	}
	return nil
}

// replayResult is what a traced replay yields.
type replayResult struct {
	counts     replayCounts
	self       map[string]time.Duration // by span name, traced pass
	tracedWall time.Duration            // sum of the traced statements' roots
	plainWall  time.Duration            // the same number of statements with spans off
	p50        time.Duration            // median traced statement
	spans      []span
}

// replay runs the warm-up untraced, then replayK statements with spans on,
// then replayK with spans off: the same ones when the workload is prepared
// reads, which change nothing; otherwise the next stretch of the periodic
// list, so that a write never repeats a key and a one-shot text stays new
// to the plan cache.
func replay(w *workload, dataDir string) (*replayResult, error) {
	r, err := newReplayer(w, dataDir)
	if err != nil {
		return nil, err
	}
	defer r.close() // scratch data: a failed close loses nothing that is kept
	warm := w.warmup * numClients
	if err := r.run(0, warm); err != nil {
		return nil, err
	}
	runtime.GC()
	r.tr = tracer{on: true, t0: time.Now(), spans: make([]span, 0, 16*w.replayK)}
	batchBefore := r.reg.CounterValue(exec.MetricBatchRows)
	r.wall = 0
	if err := r.run(warm, warm+w.replayK); err != nil {
		return nil, err
	}
	res := &replayResult{counts: r.n, spans: r.tr.spans, self: selfTimes(r.tr.spans), tracedWall: r.wall}
	res.counts.batchRows = r.reg.CounterValue(exec.MetricBatchRows) - batchBefore
	sort.Slice(r.roots, func(a, b int) bool { return r.roots[a] < r.roots[b] })
	res.p50 = r.roots[len(r.roots)/2]

	runtime.GC()
	r.tr = tracer{}
	r.wall = 0
	from := warm
	if w.writes || len(w.stmts) == 0 {
		from += w.replayK
	}
	if err := r.run(from, from+w.replayK); err != nil {
		return nil, err
	}
	res.plainWall = r.wall
	return res, nil
}

// layers are this repository's packages on a statement's path, in path
// order.
var layers = []string{"server", "plancache", "sql", "qtree", "transform", "cbqt", "optimizer", "exec", "storage"}

// layerShares turns span self times into each layer's share of the traced
// wall time. The probes re-run work that happened inside a span, so their
// time is moved out of that span's layer into their own: heuristics and
// the winner's plan out of cbqt, the store's commit out of exec.
func (res *replayResult) layerShares() map[string]float64 {
	self := map[string]time.Duration{}
	for name, d := range res.self {
		if name == spanStmt || strings.HasPrefix(name, "probe.") {
			continue
		}
		self[strings.SplitN(name, ".", 2)[0]] += d
	}
	move := func(from, to, probe string) {
		d := min(res.self[probe], self[from])
		self[from] -= d
		self[to] += d
	}
	move("cbqt", "transform", probeHeuristic)
	move("cbqt", "optimizer", probePlan)
	move("exec", "storage", probeCommit)
	out := map[string]float64{}
	for _, l := range layers {
		out[l] = float64(self[l]) / float64(res.tracedWall)
	}
	return out
}

func writeTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

package main

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"repro/internal/cbqt"
	"repro/internal/datum"
	"repro/internal/exec"
	"repro/internal/optimizer"
	"repro/internal/qtree"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/testkit"
	"repro/internal/transform"
)

var (
	demoMu  sync.Mutex
	demoDBs = map[string]*storage.DB{}
)

// demoDB is the in-process copy of the rows cbqtd generates for a size:
// same generator, same seed. The reference executor and the read-only
// replays share it; nothing writes to it.
func demoDB(size string) *storage.DB {
	demoMu.Lock()
	defer demoMu.Unlock()
	if demoDBs[size] == nil {
		demoDBs[size] = testkit.NewDB(sizesOf(size), dataSeed)
	}
	return demoDBs[size]
}

// reference computes expected results by a path that shares neither the
// server's plan choice nor its executor: every cost-based rule is forced
// to its heuristic decision, and the plan runs on the row-at-a-time engine
// over a memory store.
type reference struct {
	db    *storage.DB
	opts  cbqt.Options
	plans map[string]*refPlan
	memo  map[string]fingerprint
}

type refPlan struct {
	plan   *optimizer.Plan
	params []string // in binding order
}

func newReference(size string) *reference {
	opts := cbqt.DefaultOptions()
	opts.Parallelism = 1
	opts.RuleModes = map[string]cbqt.RuleMode{}
	for _, r := range transform.CostBasedRules() {
		opts.RuleModes[r.Name()] = cbqt.RuleHeuristic
	}
	return &reference{db: demoDB(size), opts: opts, plans: map[string]*refPlan{}, memo: map[string]fingerprint{}}
}

// orderParams arranges values given in text order (names) into the
// binding order a plan expects (params).
func orderParams(params, names []string, binds []datum.Datum) ([]datum.Datum, error) {
	out := make([]datum.Datum, len(params))
	for i, p := range params {
		found := false
		for k, n := range names {
			if strings.EqualFold(p, n) {
				out[i], found = binds[k], true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("no value for parameter :%s", p)
		}
	}
	return out, nil
}

func (r *reference) result(text string, binds []datum.Datum) (fingerprint, error) {
	key := fmt.Sprint(text, "\x00", binds)
	if fp, ok := r.memo[key]; ok {
		return fp, nil
	}
	rp := r.plans[text]
	if rp == nil {
		q, err := qtree.BindSQL(text, r.db.Catalog)
		if err != nil {
			return fingerprint{}, err
		}
		res, err := (&cbqt.Optimizer{Cat: r.db.Catalog, Opts: r.opts}).Optimize(q)
		if err != nil {
			return fingerprint{}, err
		}
		rp = &refPlan{plan: res.Plan, params: res.Query.Params}
		r.plans[text] = rp
	}
	params, err := orderParams(rp.params, paramNames(text), binds)
	if err != nil {
		return fingerprint{}, err
	}
	res, err := exec.RunParamsWith(context.Background(), r.db, rp.plan, params, exec.Options{RowExec: true})
	if err != nil {
		return fingerprint{}, err
	}
	rows := make([][]datum.Datum, len(res.Rows))
	for i, row := range res.Rows {
		rows[i] = row
	}
	fp := fingerprintOf(rows)
	r.memo[key] = fp
	return fp, nil
}

// checks is the correctness verdict of one run.
type checks struct {
	attempted int
	failed    int
	verified  int      // reads compared with the reference
	notes     []string // the first few failures, for the report
}

func (c *checks) fail(format string, args ...any) {
	c.failed++
	if len(c.notes) < 5 {
		c.notes = append(c.notes, fmt.Sprintf(format, args...))
	}
}

// checkSamples counts operations that errored, were shed or acknowledged
// the wrong row count, and compares every fingerprinted read with the
// reference result for its text and binds.
func checkSamples(w *workload, ref *reference, samples []sample, c *checks) {
	for _, s := range samples {
		c.attempted++
		if s.failed != "" {
			c.fail("op %d: %s", s.i, s.failed)
			continue
		}
		o := w.op(s.i)
		if !o.verify {
			continue
		}
		text := o.sql
		if o.stmt >= 0 {
			text = w.stmts[o.stmt].sql
		}
		want, err := ref.result(text, o.binds)
		if err != nil {
			c.fail("op %d: reference: %v", s.i, err)
			continue
		}
		c.verified++
		if !s.fp.equal(want) {
			c.fail("op %d: result %+v, reference %+v: %s", s.i, s.fp, want, strings.Join(strings.Fields(text), " "))
		}
	}
}

// modelOf replays the write effects of the operations each client executed.
func modelOf(w *workload, executed [numClients]int) finalState {
	var f finalState
	for c, n := range executed {
		for k := 0; k < n; k++ {
			f.add(w.op(c + k*numClients).effect)
		}
	}
	return f
}

// checkFinalState compares COUNT(*) and SUM(key) of the rows the benchmark
// wrote with the model. It counts as one attempted operation per check.
func checkFinalState(addr string, want finalState, when string, c *checks) {
	cl, err := server.Dial(addr, nil)
	if err != nil {
		c.attempted++
		c.fail("final state %s: %v", when, err)
		return
	}
	defer cl.Close()
	for _, fc := range finalChecks {
		c.attempted++
		rows, err := cl.Query(fc.sql)
		if err != nil || len(rows) != 1 {
			c.fail("final state %s: %q: %d rows, %v", when, fc.sql, len(rows), err)
			continue
		}
		count, sum := fc.want(want)
		gotSum := int64(0)
		if !rows[0][1].IsNull() { // SUM over no rows
			gotSum = rows[0][1].Int()
		}
		if rows[0][0].Int() != count || gotSum != sum {
			c.fail("final state %s: %q: count %d sum %d, model count %d sum %d", when, fc.sql, rows[0][0].Int(), gotSum, count, sum)
		}
	}
}

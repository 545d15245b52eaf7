package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"time"

	"repro/internal/datum"
	"repro/internal/server"
)

// fingerprint identifies a result irrespective of row order: the row
// count, an order-insensitive hash of every non-float value, and the sum
// of the float values. Floats stay out of the hash because a transformed
// plan may add them up in another order; their sum is compared with a
// tolerance instead.
type fingerprint struct {
	rows int
	hash uint64
	fsum float64
}

func fingerprintOf(rows [][]datum.Datum) fingerprint {
	fp := fingerprint{rows: len(rows)}
	for _, r := range rows {
		h := fnv.New64a()
		for _, d := range r {
			if d.Kind() == datum.KFloat {
				fp.fsum += d.Float()
				h.Write([]byte{'f'})
				continue
			}
			h.Write([]byte(d.String()))
			h.Write([]byte{0x1f})
		}
		fp.hash += h.Sum64()
	}
	return fp
}

func (a fingerprint) equal(b fingerprint) bool {
	tol := 1e-9 * math.Max(math.Abs(a.fsum), math.Abs(b.fsum))
	return a.rows == b.rows && a.hash == b.hash && math.Abs(a.fsum-b.fsum) <= tol+1e-9
}

// sample is one executed operation as the client saw it.
type sample struct {
	i      int // operation index
	lat    time.Duration
	fp     fingerprint // of a verified read
	failed string      // why the operation counts as failed; empty if it did not
}

// client is one closed-loop connection with its prepared statements.
type client struct {
	c     *server.Client
	stmts []*server.Stmt
	names [][]string // per statement: parameter names in text order
}

func dialClient(addr string, w *workload) (*client, error) {
	c, err := server.Dial(addr, nil)
	if err != nil {
		return nil, err
	}
	cl := &client{c: c}
	for _, sd := range w.stmts {
		st, err := c.Prepare(sd.sql)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("prepare %q: %w", sd.sql, err)
		}
		cl.stmts = append(cl.stmts, st)
		cl.names = append(cl.names, paramNames(sd.sql))
	}
	return cl, nil
}

// do executes one operation and times it as a client would: a read from
// execute sent to the last row of the last fetch decoded, a write from
// execute sent to Affected acknowledged.
func (cl *client) do(w *workload, i int) sample {
	o := w.op(i)
	s := sample{i: i}
	start := time.Now()
	var rows [][]datum.Datum
	var err error
	affected := 0
	if o.stmt < 0 {
		rows, err = cl.c.Query(o.sql)
	} else {
		st := cl.stmts[o.stmt]
		binds := make([]server.BindValue, len(o.binds))
		for k, d := range o.binds {
			binds[k] = server.Named(cl.names[o.stmt][k], d)
		}
		if err = st.Execute(binds...); err == nil {
			affected = st.Affected
			if !w.stmts[o.stmt].write {
				rows, err = fetchAll(st, w.stmts[o.stmt].page, st.RowCount)
			}
		}
	}
	s.lat = time.Since(start)
	switch {
	case err != nil:
		s.failed = err.Error()
	case o.stmt >= 0 && w.stmts[o.stmt].write && affected != o.affected:
		s.failed = fmt.Sprintf("affected %d, want %d", affected, o.affected)
	case o.verify:
		s.fp = fingerprintOf(rows)
	}
	return s
}

func fetchAll(st *server.Stmt, page, rowCount int) ([][]datum.Datum, error) {
	all := make([][]datum.Datum, 0, rowCount)
	for {
		batch, done, err := st.Fetch(page)
		if err != nil {
			return nil, err
		}
		all = append(all, batch...)
		if done {
			return all, nil
		}
	}
}

// liveRun is the outcome of one closed-loop stretch against a live cbqtd.
type liveRun struct {
	samples []sample // the stretch's operations, all clients
	elapsed time.Duration
	// executed counts, per client, the operations done since the start of
	// the list: the position the next stretch continues from.
	executed [numClients]int
}

func eachClient(clients []*client, f func(c int)) {
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(c)
		}()
	}
	wg.Wait()
}

// warmUp runs the untimed prefix of the operation list on every client:
// client c executes indexes c, c+numClients, ... It returns once the last
// client is through, so plans are cached before the clock starts.
func warmUp(clients []*client, w *workload) []sample {
	per := make([][]sample, len(clients))
	eachClient(clients, func(c int) {
		for k := 0; k < w.warmup; k++ {
			per[c] = append(per[c], clients[c].do(w, c+k*len(clients)))
		}
	})
	var all []sample
	for _, p := range per {
		all = append(all, p...)
	}
	return all
}

// drive continues the operation list closed-loop for d, client c from its
// position from[c]: each client sends its next statement only when the
// previous reply is in.
func drive(clients []*client, w *workload, from [numClients]int, d time.Duration) *liveRun {
	run := &liveRun{}
	per := make([][]sample, len(clients))
	for c := range per {
		per[c] = make([]sample, 0, 1<<14)
	}
	start := time.Now()
	deadline := start.Add(d)
	eachClient(clients, func(c int) {
		for k := from[c]; time.Now().Before(deadline); k++ {
			s := clients[c].do(w, c+k*len(clients))
			per[c] = append(per[c], s)
			if s.failed != "" && clients[c].c.Broken() {
				return // the connection is gone; what is left counts as not attempted
			}
		}
	})
	run.elapsed = time.Since(start)
	for c := range clients {
		run.samples = append(run.samples, per[c]...)
		run.executed[c] = from[c] + len(per[c])
	}
	return run
}

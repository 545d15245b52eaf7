package main

import (
	"fmt"
	"math/rand"
	"regexp"
	"strings"

	"repro/internal/bench"
	"repro/internal/datum"
	"repro/internal/plancache"
	"repro/internal/sql"
	"repro/internal/testkit"
	wgen "repro/internal/workload"
)

// numClients is the closed-loop connection count of every end-to-end run:
// each client sends its next statement only after the previous reply. Two
// matches the sandbox's two cores, and mixed_rw_disk needs exactly one
// writer and one reader.
const numClients = 2

// stmtDef is one prepared statement of a workload.
type stmtDef struct {
	sql   string
	write bool
	// page is the Fetch batch size used to drain a read's cursor.
	page int
}

// op is one operation of a workload's seeded list.
type op struct {
	stmt  int    // index into workload.stmts, or -1 for a one-shot text
	sql   string // the one-shot text when stmt is -1
	binds []datum.Datum
	// affected is the row count a write must acknowledge.
	affected int
	// verify asks for the read's result to be fingerprinted and compared
	// with the reference executor's.
	verify bool
	// effect is what a write adds to the final-state model.
	effect finalState
}

// finalState is the model the write workloads are checked against: row
// count and key sum of the rows the benchmark itself wrote.
type finalState struct {
	salesCount, salesSum, acctCount, acctSum int64
}

func (a *finalState) add(b finalState) {
	a.salesCount += b.salesCount
	a.salesSum += b.salesSum
	a.acctCount += b.acctCount
	a.acctSum += b.acctSum
}

// workload is a named, seeded operation list plus the server it runs on.
// op is a pure function of (seed, index): client c of numClients executes
// indexes c, c+numClients, ... in order, the first warmup of them untimed.
type workload struct {
	name  string
	size  string // demo data size: small or medium
	store string // mem or disk
	stmts []stmtDef
	op    func(i int) op
	// warmup is the untimed per-client prefix: long enough to execute every
	// prepared statement once, so plans are cached before the clock starts.
	warmup int
	// replayK is how many statements the traced replay covers. It is fixed
	// so the replay's counts repeat exactly for a seed, and is a multiple
	// of the workload's statement cycle.
	replayK int
	// writes reports that the final-state and restart checks apply.
	writes bool
	// dominant is the layer group that should hold the largest self-time
	// share of the traced replay.
	dominant []string
}

var workloadNames = []string{"point_cached", "adhoc_cbqt", "analytic_cached", "fetch_wide", "write_disk", "mixed_rw_disk"}

// optimizerLayers are the layers a cached statement bypasses.
var optimizerLayers = []string{"sql", "qtree", "transform", "cbqt", "optimizer"}

func sizesOf(size string) testkit.Sizes {
	if size == "small" {
		return testkit.SmallSizes()
	}
	return testkit.MediumSizes()
}

func newWorkload(name string, seed int64) (*workload, error) {
	switch name {
	case "point_cached":
		return pointCached(seed), nil
	case "adhoc_cbqt":
		return adhocCBQT(seed), nil
	case "analytic_cached":
		return analyticCached(seed), nil
	case "fetch_wide":
		return fetchWide(seed), nil
	case "write_disk":
		return writeDisk(seed), nil
	case "mixed_rw_disk":
		return mixedRWDisk(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

// schedule draws n values in [0, bound) from the seed; ops index it
// modulo n, so the bind sequence is seeded yet op stays a pure function.
func schedule(seed int64, salt int64, n, bound int) []int {
	rng := rand.New(rand.NewSource(seed*1_000_003 + salt))
	out := make([]int, n)
	for i := range out {
		out[i] = rng.Intn(bound)
	}
	return out
}

const scheduleLen = 8192

// grid is n values evenly spaced over [lo, hi). Statements whose cost
// follows their bind value take their binds from a grid and only the order
// from the seed, so every seed does the same total work.
func grid(n, lo, hi int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = lo + i*(hi-lo)/n
	}
	return out
}

// paramNames lists a statement's named parameters in text order, the
// order op.binds follows. (The server reports them in binding order, which
// differs once a parameter sits in a subquery.)
func paramNames(text string) []string {
	toks, err := sql.LexAll(text)
	if err != nil {
		return nil // Prepare reports the malformed text
	}
	var names []string
	seen := map[string]bool{}
	for _, t := range toks {
		if t.Kind == sql.TokParam && !seen[t.Text] {
			seen[t.Text] = true
			names = append(names, t.Text)
		}
	}
	return names
}

func ints(vs ...int) []datum.Datum {
	out := make([]datum.Datum, len(vs))
	for i, v := range vs {
		out[i] = datum.NewInt(int64(v))
	}
	return out
}

// pointCached: primary-key reads and a two-table index join over a pool
// of 512 seeded keys. Everything is prepared and cached, so what is left is
// the per-statement fixed cost.
func pointCached(seed int64) *workload {
	sizes := testkit.MediumSizes()
	pool := schedule(seed, 1, 512, sizes.Employees)
	pick := schedule(seed, 2, scheduleLen, len(pool))
	cycle := []int{0, 1, 0, 2}
	return &workload{
		name: "point_cached", size: "medium", store: "mem",
		stmts: []stmtDef{
			{sql: `SELECT e.employee_name, e.salary, e.dept_id FROM employees e WHERE e.emp_id = :emp_id`},
			{sql: `SELECT e.employee_name, d.department_name FROM employees e, departments d
			       WHERE e.dept_id = d.dept_id AND e.emp_id = :emp_id`},
			{sql: `SELECT e.employee_name, s.sale_id, s.amount FROM employees e, sales s
			       WHERE s.emp_id = e.emp_id AND e.emp_id = :emp_id`},
		},
		op: func(i int) op {
			return op{stmt: cycle[(i/numClients)%len(cycle)], binds: ints(pool[pick[i%scheduleLen]] + 1), verify: true}
		},
		warmup: 2 * len(cycle), replayK: 4000,
		dominant: []string{"server", "plancache", "exec"},
	}
}

// adhocClasses are the eleven CBQT-relevant workload classes; with the
// four Table-2-family sizes they make the fifteen-statement adhoc cycle.
var adhocFamily = []int{4, 6, 8, 10}

// adhocCBQT: one-shot statements with seeded literals, every text new to
// the plan cache, on small data so execution is short and parse, bind,
// heuristics, state search and costing do most of the work.
func adhocCBQT(seed int64) *workload {
	const n = 9000 // unique texts; a run at HEAD uses under a third
	s := testkit.SmallSizes()
	cfg := wgen.DefaultConfig(seed, 0, s.Employees, s.Departments, s.Jobs)
	rng := rand.New(rand.NewSource(seed*1_000_003 + 3))
	gens := make([]func() string, 0, len(adhocFamily)+len(wgen.RelevantClasses))
	for _, k := range adhocFamily {
		text := bench.Table2FamilyQuery(k)
		gens = append(gens, func() string { return text })
	}
	for _, class := range wgen.RelevantClasses {
		gens = append(gens, func() string {
			return wgen.GenerateClass(rng.Int63(), 1, cfg, class)[0].SQL
		})
	}
	texts := make([]string, 0, n)
	seen := map[string]bool{}
	for len(texts) < n {
		g := gens[len(texts)%len(gens)]
		// A generator with few distinct literals (eight countries, 72
		// months) is redrawn until its jittered text is new; the cache key
		// is the normalized text, so that is what must differ.
		for try := 0; ; try++ {
			t := jitterLiterals(g(), rng)
			if key := plancache.Normalize(t); !seen[key] || try == 50 {
				seen[key] = true
				texts = append(texts, t)
				break
			}
		}
	}
	return &workload{
		name: "adhoc_cbqt", size: "small", store: "mem",
		op: func(i int) op {
			// Past the list the texts repeat and would hit the plan cache;
			// n is sized so a run never gets there.
			return op{stmt: -1, sql: texts[i%n], verify: i%8 == 0}
		},
		warmup: len(gens), replayK: 20 * len(gens),
		dominant: optimizerLayers,
	}
}

// firstOfMonth matches the generators' date literals, all 'YYYYMM01'.
var firstOfMonth = regexp.MustCompile(`'(\d{6})01'`)

// jitterLiterals moves every numeric literal of the text up by a seeded
// amount under a quarter of its size (ROWNUM bounds stay, as in
// workload.Parameterize) and every date literal to a seeded day of its
// month, which keeps predicates selective the way the generator meant them
// while making the text new.
func jitterLiterals(text string, rng *rand.Rand) string {
	text = firstOfMonth.ReplaceAllStringFunc(text, func(lit string) string {
		return fmt.Sprintf("%s%02d'", lit[:7], 1+rng.Intn(28))
	})
	pq, ok := wgen.Parameterize(text, 1, 1)
	if !ok {
		return text
	}
	out := pq.SQL
	for ord := len(pq.Names) - 1; ord >= 0; ord-- {
		lit := pq.Sets[0][ord]
		var repl string
		if lit.Kind() == datum.KInt {
			repl = fmt.Sprint(lit.Int() + rng.Int63n(lit.Int()/4+3))
		} else {
			repl = fmt.Sprintf("%.3f", lit.Float()*(1+rng.Float64()/4))
		}
		out = strings.ReplaceAll(out, ":"+pq.Names[ord], repl)
	}
	return out
}

// analyticCached: prepared, cached, parameterized heavy reads over medium
// data, each returning at most a few hundred rows, so the executor's batch
// kernels and snapshot reads do nearly all the work. The six statements
// take 25–60 ms each at HEAD and the slowest is a sixth of the cycle, which
// keeps the 95th percentile inside one statement's own distribution.
func analyticCached(seed int64) *workload {
	sizes := testkit.MediumSizes()
	// Four bind sets a statement: the row-at-a-time reference needs about
	// 100 ms for each distinct (statement, binds) pair.
	const pool = 4
	budget := grid(pool, 0, 150000)
	empLo := grid(pool, 0, sizes.Employees-400)
	keyword := grid(pool, 0, 13)
	balance := grid(pool, 0, 200)
	amount := grid(pool, 0, 400)
	salary := grid(pool, 0, 400)
	pick := schedule(seed, 17, scheduleLen, pool)
	stmts := []stmtDef{
		{sql: `SELECT d.department_name, SUM(s.amount), AVG(s.amount), COUNT(*)
		       FROM departments d, locations l, sales s
		       WHERE d.loc_id = l.loc_id AND d.dept_id = s.dept_id AND d.budget > :budget
		       GROUP BY d.department_name`},
		{sql: `SELECT e.employee_name, v.total
		       FROM employees e,
		            (SELECT s.dept_id dd, SUM(s.amount) total, COUNT(*) cnt FROM sales s GROUP BY s.dept_id) v
		       WHERE e.dept_id = v.dd AND e.salary < v.total AND e.emp_id BETWEEN :lo AND :hi`},
		{sql: `SELECT v.acct_id, v.balance FROM
		       (SELECT a.acct_id acct_id, a.balance balance, a.create_date FROM accounts a
		        WHERE SLOW_MATCH(a.notes, :keyword) AND a.balance > :balance ORDER BY a.create_date) v
		       WHERE rownum <= 20`},
		{sql: `SELECT s.dept_id, COUNT(*), SUM(s.amount), MAX(s.amount) FROM sales s
		       WHERE s.amount > :amount GROUP BY s.dept_id`},
		{sql: bench.Table2FamilyQuery(2) + " AND e.salary > :salary"},
		{sql: bench.Table2FamilyQuery(4) + " AND e.salary > :salary"},
	}
	return &workload{
		name: "analytic_cached", size: "medium", store: "mem",
		stmts: stmts,
		op: func(i int) op {
			k := (i / numClients) % len(stmts)
			p := pick[i%scheduleLen]
			o := op{stmt: k, verify: true}
			switch k {
			case 0:
				o.binds = ints(budget[p])
			case 1:
				o.binds = ints(empLo[p]+1, empLo[p]+400)
			case 2:
				o.binds = []datum.Datum{datum.NewString(fmt.Sprintf("keyword%d", keyword[p])), datum.NewInt(int64(balance[p]))}
			case 3:
				o.binds = ints(amount[p])
			default:
				o.binds = ints(10400 + salary[p]) // salaries end at 11000: a few hundred rows pass
			}
			return o
		},
		warmup: len(stmts), replayK: 6 * len(stmts),
		dominant: []string{"exec"},
	}
}

// fetchWide: prepared, cached scans and a simple join returning 5k–12k
// rows of four or five columns, paged 1024 rows a fetch. The executor
// needs a few milliseconds; JSON framing, boxed wire values and client
// decode do the rest.
func fetchWide(seed int64) *workload {
	const pool = 8
	amount := grid(pool, 0, 175)
	salary := grid(pool, 0, 2500)
	pick := schedule(seed, 23, scheduleLen, pool)
	stmts := []stmtDef{
		{page: 1024, sql: `SELECT s.sale_id, s.emp_id, s.dept_id, s.amount, s.country_id FROM sales s WHERE s.amount > :amount`},
		{page: 1024, sql: `SELECT e.emp_id, e.employee_name, e.salary, d.department_name
		                  FROM employees e, departments d WHERE e.dept_id = d.dept_id AND e.salary > :salary`},
	}
	return &workload{
		name: "fetch_wide", size: "medium", store: "mem",
		stmts: stmts,
		op: func(i int) op {
			k := (i / numClients) % len(stmts)
			p := pick[i%scheduleLen]
			// Fingerprinting ten thousand rows costs the client about a
			// tenth of the fetch itself, so one statement in four pays it.
			o := op{stmt: k, verify: i%4 == 0}
			if k == 0 {
				o.binds = ints(700 + amount[p])
			} else {
				o.binds = ints(6000 + salary[p])
			}
			return o
		},
		warmup: 2 * len(stmts), replayK: 20 * len(stmts),
		dominant: []string{"server"},
	}
}

// The write workloads insert rows whose keys start at freshBase, far above
// the demo data, and touch no other row: operation i owns the 64 keys from
// freshBase+64*i, so clients never conflict and a model of the executed
// operations predicts the final COUNT(*) and SUM(key) exactly. Fresh sales
// rows carry state_id 'ZZ' so that readers can leave them out.
const freshBase = 1_000_000

func freshKey(i int) int { return freshBase + 64*i }

func salesRow(key int) []datum.Datum {
	return []datum.Datum{
		datum.NewInt(int64(key)), datum.NewInt(int64(key%20000 + 1)), datum.NewInt(int64(100000 + key%400)),
		datum.NewFloat(float64(key%10000) / 10), datum.NewString("ZZ"), datum.NewString("ZZ"),
		datum.NewString(fmt.Sprintf("city_%d", key%40+1)),
	}
}

// insertSQL renders a prepared n-row INSERT with one named parameter per
// value (positional markers cannot be re-bound on a second execute).
func insertSQL(table string, cols, n int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "INSERT INTO %s VALUES ", table)
	for r := 0; r < n; r++ {
		if r > 0 {
			sb.WriteString(", ")
		}
		sb.WriteByte('(')
		for c := 0; c < cols; c++ {
			if c > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, ":v%d", r*cols+c)
		}
		sb.WriteByte(')')
	}
	return sb.String()
}

func insertSales(stmt, key, n int) op {
	o := op{stmt: stmt, affected: n}
	for r := 0; r < n; r++ {
		o.binds = append(o.binds, salesRow(key+r)...)
		o.effect.salesCount++
		o.effect.salesSum += int64(key + r)
	}
	return o
}

const (
	updateSalesSQL = `UPDATE sales s SET amount = :amount WHERE s.sale_id = :sale_id`
	deleteSalesSQL = `DELETE FROM sales s WHERE s.sale_id = :sale_id`
)

func updateSales(stmt, key int) op {
	return op{stmt: stmt, affected: 1, binds: []datum.Datum{datum.NewFloat(float64(key%977) + 0.5), datum.NewInt(int64(key))}}
}

// writeDisk: cached single-row and 64-row inserts, and updates and deletes
// by key whose ROWID locating query is planned through CBQT, on the disk
// store. Commit, WAL append and fsync-before-ack do most of the work.
func writeDisk(seed int64) *workload {
	const (
		ins1 = iota
		ins64
		upd
		del
		insAcct
	)
	const period = 8
	jitter := schedule(seed, 31, scheduleLen, 24)
	return &workload{
		name: "write_disk", size: "medium", store: "disk", writes: true,
		stmts: []stmtDef{
			ins1:    {write: true, sql: insertSQL("sales", 7, 1)},
			ins64:   {write: true, sql: insertSQL("sales", 7, 64)},
			upd:     {write: true, sql: updateSalesSQL},
			del:     {write: true, sql: deleteSalesSQL},
			insAcct: {write: true, sql: insertSQL("accounts", 5, 1)},
		},
		op: func(i int) op {
			// Positions 4, 5 and 7 of a client's period act on the rows its
			// positions 0, 1 and 2 inserted, so the target always exists.
			back := func(positions int) int { return freshKey(i - positions*numClients) }
			switch (i / numClients) % period {
			case 3:
				return insertSales(ins64, freshKey(i), 64)
			case 4:
				return updateSales(upd, back(4))
			case 5:
				key := back(4)
				return op{stmt: del, affected: 1, binds: ints(key), effect: finalState{salesCount: -1, salesSum: -int64(key)}}
			case 6:
				t := freshKey(i)
				return op{stmt: insAcct, affected: 1, effect: finalState{acctCount: 1, acctSum: int64(t)}, binds: []datum.Datum{
					datum.NewString(fmt.Sprintf("BENCH%d", i)), datum.NewInt(int64(t)),
					datum.NewFloat(float64(jitter[i%scheduleLen])), datum.NewString("20260101"), datum.NewString("bench"),
				}}
			case 7:
				return updateSales(upd, back(5))
			}
			return insertSales(ins1, freshKey(i), 1)
		},
		warmup: period, replayK: 30 * period,
		dominant: []string{"storage"},
	}
}

// mixedRWDisk: client 0 streams inserts and updates into sales on the disk
// store while client 1 reads the same table: a full-scan aggregate, point
// reads and an indexed group. The reads leave the fresh rows out (state_id
// 'ZZ', dept_id above the demo range), so their results are those of the
// demo data however far the writer has got, and can be checked.
func mixedRWDisk(seed int64) *workload {
	const (
		ins1 = iota
		ins16
		upd
		scanAgg
		point
		deptAgg
	)
	sizes := testkit.MediumSizes()
	const pool = 16
	amount := grid(pool, 0, 900)
	saleID := schedule(seed, 42, pool, sizes.Sales)
	deptID := schedule(seed, 43, pool, sizes.Departments)
	pick := schedule(seed, 44, scheduleLen, pool)
	return &workload{
		name: "mixed_rw_disk", size: "medium", store: "disk", writes: true,
		stmts: []stmtDef{
			ins1:  {write: true, sql: insertSQL("sales", 7, 1)},
			ins16: {write: true, sql: insertSQL("sales", 7, 16)},
			upd:   {write: true, sql: updateSalesSQL},
			scanAgg: {sql: `SELECT s.country_id, COUNT(*), SUM(s.amount) FROM sales s
			                WHERE s.amount > :amount AND s.state_id <> 'ZZ' GROUP BY s.country_id`},
			point: {sql: `SELECT s.sale_id, s.emp_id, s.amount FROM sales s WHERE s.sale_id = :sale_id`},
			deptAgg: {sql: `SELECT s.dept_id, COUNT(*), MAX(s.amount) FROM sales s
			                WHERE s.dept_id = :dept_id GROUP BY s.dept_id`},
		},
		op: func(i int) op {
			pos := (i / numClients) % 4
			if i%numClients == 0 { // the writer
				switch pos {
				case 1:
					return insertSales(ins16, freshKey(i), 16)
				case 2:
					return updateSales(upd, freshKey(i-2*numClients))
				}
				return insertSales(ins1, freshKey(i), 1)
			}
			p := pick[i%scheduleLen]
			switch pos {
			case 0:
				return op{stmt: scanAgg, verify: true, binds: ints(amount[p])}
			case 2:
				return op{stmt: deptAgg, verify: true, binds: ints(deptID[p] + 1)}
			}
			return op{stmt: point, verify: true, binds: ints(saleID[p] + 1)}
		},
		warmup: 4, replayK: 60 * 4,
		dominant: []string{"storage"},
	}
}

// finalChecks are the statements whose single row is compared with the
// model after a write workload, before and after the restart.
var finalChecks = []struct {
	sql  string
	want func(finalState) (count, sum int64)
}{
	{fmt.Sprintf(`SELECT COUNT(*), SUM(s.sale_id) FROM sales s WHERE s.sale_id >= %d`, freshBase),
		func(f finalState) (int64, int64) { return f.salesCount, f.salesSum }},
	{fmt.Sprintf(`SELECT COUNT(*), SUM(a.time) FROM accounts a WHERE a.time >= %d`, freshBase),
		func(f finalState) (int64, int64) { return f.acctCount, f.acctSum }},
}

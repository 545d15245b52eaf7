package qtree

import (
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datum"
	"repro/internal/testkit"
)

// TestRenderFormats pins the three renderings of every expression kind
// byte for byte: String() (raw from IDs), display SQL (aliases and column
// names) and the canonical annotation key (relative names and ordinals).
// Plan-cache text, cost annotation keys and predicate dedupe keys all
// depend on these exact strings.
func TestRenderFormats(t *testing.T) {
	q := NewQuery(nil)
	root := q.NewBlock()
	q.Root = root
	emp := &FromItem{ID: q.NewFromID(), Alias: "e", Table: &catalog.Table{Name: "EMP"}}
	root.From = []*FromItem{emp}
	root.Select = []SelectItem{{Expr: &Const{Val: datum.NewInt(1)}}}

	ec := func(ord int, name string) *Col { return &Col{From: emp.ID, Ord: ord, Name: name} }
	num := func(i int64) *Const { return &Const{Val: datum.NewInt(i)} }
	str := func(s string) *Const { return &Const{Val: datum.NewString(s)} }
	// sub builds "SELECT d.DEPT_ID FROM DEPT d WHERE d.LOC = e.LOC" as a
	// fresh block (the correlated form every subquery case uses).
	sub := func() *Block {
		b := q.NewBlock()
		d := &FromItem{ID: q.NewFromID(), Alias: "d", Table: &catalog.Table{Name: "DEPT"}}
		b.From = []*FromItem{d}
		b.Select = []SelectItem{{Expr: &Col{From: d.ID, Ord: 0, Name: "DEPT_ID"}}}
		b.Where = []Expr{&Bin{Op: OpEq, L: &Col{From: d.ID, Ord: 2, Name: "LOC"}, R: ec(4, "LOC")}}
		return b
	}
	nvl := &catalog.FuncDef{Name: "NVL"}

	cases := []struct {
		name           string
		e              func() Expr
		raw, disp, key string
	}{
		{"const int", func() Expr { return num(-7) },
			"-7", "-7", "-7"},
		{"const float string null bool", func() Expr {
			return &InList{E: &Const{Val: datum.NewFloat(2.5)}, Vals: []Expr{str("a'b"), &Const{Val: datum.Null}, &Const{Val: datum.NewBool(true)}}}
		},
			"2.5 IN ('a'b', NULL, TRUE)", "2.5 IN ('a'b', NULL, TRUE)", "2.5 IN ('a'b', NULL, TRUE)"},
		{"col", func() Expr { return ec(3, "SALARY") },
			"q1.SALARY", "e.SALARY", "t0.#3"},
		{"col from 0", func() Expr { return &Col{From: 0, Ord: 1, Name: "X"} },
			"q0.X", "X", "X"},
		{"param", func() Expr { return &Bin{Op: OpEq, L: ec(1, "DEPT_ID"), R: &Param{Ord: 2, Name: "dept"}} },
			"(q1.DEPT_ID = :dept)", "(e.DEPT_ID = :dept)", "(t0.#1 = :$2)"},
		{"positional param", func() Expr { return &Param{Ord: 0, Name: "?1"} },
			":?1", ":?1", ":$0"},
		{"bin ops", func() Expr {
			return &Bin{Op: OpOr,
				L: &Bin{Op: OpNullSafeEq, L: &Bin{Op: OpConcat, L: ec(2, "NAME"), R: str("x")}, R: str("y")},
				R: &Bin{Op: OpAnd, L: &Bin{Op: OpGe, L: &Bin{Op: OpDiv, L: ec(3, "SALARY"), R: num(2)}, R: num(10)},
					R: &Bin{Op: OpNe, L: &Bin{Op: OpSub, L: num(1), R: &Bin{Op: OpMul, L: num(2), R: &Bin{Op: OpAdd, L: num(3), R: num(4)}}}, R: num(0)}}}
		},
			"(((q1.NAME || 'x') <=> 'y') OR (((q1.SALARY / 2) >= 10) AND ((1 - (2 * (3 + 4))) <> 0)))",
			"(((e.NAME || 'x') <=> 'y') OR (((e.SALARY / 2) >= 10) AND ((1 - (2 * (3 + 4))) <> 0)))",
			"(((t0.#2 || 'x') <=> 'y') OR (((t0.#3 / 2) >= 10) AND ((1 - (2 * (3 + 4))) <> 0)))"},
		{"not", func() Expr { return &Not{E: &Bin{Op: OpLt, L: ec(3, "SALARY"), R: num(5)}} },
			"NOT ((q1.SALARY < 5))", "NOT ((e.SALARY < 5))", "NOT ((t0.#3 < 5))"},
		{"is null", func() Expr { return &IsNull{E: ec(5, "MGR")} },
			"q1.MGR IS NULL", "e.MGR IS NULL", "t0.#5 IS NULL"},
		{"is not null", func() Expr { return &IsNull{E: ec(5, "MGR"), Neg: true} },
			"q1.MGR IS NOT NULL", "e.MGR IS NOT NULL", "t0.#5 IS NOT NULL"},
		{"like", func() Expr { return &Like{E: ec(2, "NAME"), Pattern: str("a%")} },
			"q1.NAME LIKE 'a%'", "e.NAME LIKE 'a%'", "t0.#2 LIKE 'a%'"},
		{"not like", func() Expr { return &Like{E: ec(2, "NAME"), Pattern: str("a%"), Neg: true} },
			"q1.NAME NOT LIKE 'a%'", "e.NAME NOT LIKE 'a%'", "t0.#2 NOT LIKE 'a%'"},
		{"in list", func() Expr { return &InList{E: ec(1, "DEPT_ID"), Vals: []Expr{num(1), num(2)}} },
			"q1.DEPT_ID IN (1, 2)", "e.DEPT_ID IN (1, 2)", "t0.#1 IN (1, 2)"},
		{"not in list", func() Expr { return &InList{E: ec(1, "DEPT_ID"), Vals: []Expr{num(3)}, Neg: true} },
			"q1.DEPT_ID NOT IN (3)", "e.DEPT_ID NOT IN (3)", "t0.#1 NOT IN (3)"},
		{"func", func() Expr { return &Func{Def: nvl, Args: []Expr{ec(5, "MGR"), num(-1)}} },
			"NVL(q1.MGR, -1)", "NVL(e.MGR, -1)", "NVL(t0.#5, -1)"},
		{"func no args", func() Expr { return &Func{Def: &catalog.FuncDef{Name: "NOW"}} },
			"NOW()", "NOW()", "NOW()"},
		{"lnnvl", func() Expr { return &LNNVL{E: &Bin{Op: OpGt, L: ec(3, "SALARY"), R: num(1)}} },
			"LNNVL((q1.SALARY > 1))", "LNNVL((e.SALARY > 1))", "LNNVL((t0.#3 > 1))"},
		{"is true", func() Expr { return &IsTrue{E: &Bin{Op: OpLe, L: ec(3, "SALARY"), R: num(1)}} },
			"((q1.SALARY <= 1)) IS TRUE", "((e.SALARY <= 1)) IS TRUE", "((t0.#3 <= 1)) IS TRUE"},
		{"aggs", func() Expr {
			return &Func{Def: nvl, Args: []Expr{
				&Agg{Op: AggCount, Star: true},
				&Agg{Op: AggSum, Arg: ec(3, "SALARY")},
				&Agg{Op: AggCount, Arg: ec(1, "DEPT_ID"), Distinct: true},
				&Agg{Op: AggAvg, Arg: ec(3, "SALARY")},
				&Agg{Op: AggMin, Arg: ec(3, "SALARY")},
				&Agg{Op: AggMax, Arg: ec(3, "SALARY")}}}
		},
			"NVL(COUNT(*), SUM(q1.SALARY), COUNT(DISTINCT q1.DEPT_ID), AVG(q1.SALARY), MIN(q1.SALARY), MAX(q1.SALARY))",
			"NVL(COUNT(*), SUM(e.SALARY), COUNT(DISTINCT e.DEPT_ID), AVG(e.SALARY), MIN(e.SALARY), MAX(e.SALARY))",
			"NVL(COUNT(*), SUM(t0.#3), COUNT(DISTINCT t0.#1), AVG(t0.#3), MIN(t0.#3), MAX(t0.#3))"},
		{"window partition and order", func() Expr {
			return &WinFunc{Op: WinAvg, Arg: ec(3, "SALARY"), Running: true,
				PartitionBy: []Expr{ec(1, "DEPT_ID"), ec(5, "MGR")},
				OrderBy:     []OrderItem{{Expr: ec(3, "SALARY"), Desc: true}, {Expr: ec(2, "NAME")}}}
		},
			"AVG(q1.SALARY) OVER (PARTITION BY q1.DEPT_ID, q1.MGR ORDER BY q1.SALARY DESC, q1.NAME)",
			"AVG(e.SALARY) OVER (PARTITION BY e.DEPT_ID, e.MGR ORDER BY e.SALARY DESC, e.NAME)",
			"AVG(t0.#3) OVER (PARTITION BY t0.#1, t0.#5 ORDER BY t0.#3 DESC, t0.#2)"},
		{"window order only", func() Expr {
			return &WinFunc{Op: WinRowNumber, OrderBy: []OrderItem{{Expr: ec(2, "NAME")}}}
		},
			"ROW_NUMBER() OVER (ORDER BY q1.NAME)", "ROW_NUMBER() OVER (ORDER BY e.NAME)", "ROW_NUMBER() OVER (ORDER BY t0.#2)"},
		{"window empty", func() Expr { return &WinFunc{Op: WinCount, Star: true} },
			"COUNT(*) OVER ()", "COUNT(*) OVER ()", "COUNT(*) OVER ()"},
		{"window partition only", func() Expr {
			return &WinFunc{Op: WinSum, Arg: ec(3, "SALARY"), PartitionBy: []Expr{ec(1, "DEPT_ID")}}
		},
			"SUM(q1.SALARY) OVER (PARTITION BY q1.DEPT_ID)", "SUM(e.SALARY) OVER (PARTITION BY e.DEPT_ID)", "SUM(t0.#3) OVER (PARTITION BY t0.#1)"},
		{"case", func() Expr {
			return &Case{Whens: []CaseWhen{
				{Cond: &Bin{Op: OpGt, L: ec(3, "SALARY"), R: num(5)}, Result: str("hi")},
				{Cond: &IsNull{E: ec(3, "SALARY")}, Result: str("none")}}, Else: str("lo")}
		},
			"CASE WHEN (q1.SALARY > 5) THEN 'hi' WHEN q1.SALARY IS NULL THEN 'none' ELSE 'lo' END",
			"CASE WHEN (e.SALARY > 5) THEN 'hi' WHEN e.SALARY IS NULL THEN 'none' ELSE 'lo' END",
			"CASE WHEN (t0.#3 > 5) THEN 'hi' WHEN t0.#3 IS NULL THEN 'none' ELSE 'lo' END"},
		{"case no else", func() Expr {
			return &Case{Whens: []CaseWhen{{Cond: &Const{Val: datum.NewBool(false)}, Result: num(1)}}}
		},
			"CASE WHEN FALSE THEN 1 END", "CASE WHEN FALSE THEN 1 END", "CASE WHEN FALSE THEN 1 END"},
		{"exists", func() Expr { return &Subq{Kind: SubqExists, Block: sub()} },
			"EXISTS (subquery b@)",
			"EXISTS (SELECT d.DEPT_ID FROM DEPT d WHERE (d.LOC = e.LOC))",
			"EXISTS (SELECT t1.#0 FROM DEPT t1 WHERE (t1.#2 = t0.#4))"},
		{"not exists", func() Expr { return &Subq{Kind: SubqNotExists, Block: sub()} },
			"NOT EXISTS (subquery b@)",
			"NOT EXISTS (SELECT d.DEPT_ID FROM DEPT d WHERE (d.LOC = e.LOC))",
			"NOT EXISTS (SELECT t1.#0 FROM DEPT t1 WHERE (t1.#2 = t0.#4))"},
		{"in", func() Expr { return &Subq{Kind: SubqIn, Op: OpEq, Left: []Expr{ec(1, "DEPT_ID")}, Block: sub()} },
			"[q1.DEPT_ID] IN (subquery b@)",
			"e.DEPT_ID IN (SELECT d.DEPT_ID FROM DEPT d WHERE (d.LOC = e.LOC))",
			"t0.#1 IN (SELECT t1.#0 FROM DEPT t1 WHERE (t1.#2 = t0.#4))"},
		{"not in, two columns", func() Expr {
			return &Subq{Kind: SubqNotIn, Op: OpEq, Left: []Expr{ec(1, "DEPT_ID"), &Bin{Op: OpAdd, L: ec(5, "MGR"), R: num(1)}}, Block: sub()}
		},
			"[q1.DEPT_ID (q1.MGR + 1)] NOT IN (subquery b@)",
			"(e.DEPT_ID, (e.MGR + 1)) NOT IN (SELECT d.DEPT_ID FROM DEPT d WHERE (d.LOC = e.LOC))",
			"(t0.#1, (t0.#5 + 1)) NOT IN (SELECT t1.#0 FROM DEPT t1 WHERE (t1.#2 = t0.#4))"},
		{"any", func() Expr { return &Subq{Kind: SubqAnyCmp, Op: OpGt, Left: []Expr{ec(3, "SALARY")}, Block: sub()} },
			"[q1.SALARY] ANY (subquery b@)",
			"e.SALARY > ANY (SELECT d.DEPT_ID FROM DEPT d WHERE (d.LOC = e.LOC))",
			"t0.#3 > ANY (SELECT t1.#0 FROM DEPT t1 WHERE (t1.#2 = t0.#4))"},
		{"all", func() Expr { return &Subq{Kind: SubqAllCmp, Op: OpLe, Left: []Expr{ec(3, "SALARY")}, Block: sub()} },
			"[q1.SALARY] ALL (subquery b@)",
			"e.SALARY <= ALL (SELECT d.DEPT_ID FROM DEPT d WHERE (d.LOC = e.LOC))",
			"t0.#3 <= ALL (SELECT t1.#0 FROM DEPT t1 WHERE (t1.#2 = t0.#4))"},
		{"scalar", func() Expr { return &Bin{Op: OpGt, L: ec(3, "SALARY"), R: &Subq{Kind: SubqScalar, Block: sub()}} },
			"(q1.SALARY > (subquery b@))",
			"(e.SALARY > (SELECT d.DEPT_ID FROM DEPT d WHERE (d.LOC = e.LOC)))",
			"(t0.#3 > (SELECT t1.#0 FROM DEPT t1 WHERE (t1.#2 = t0.#4)))"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := c.e()
			root.Where = []Expr{e}
			// The raw form names a subquery by block ID, which the case
			// allocates; "@" stands for the last block allocated.
			raw := strings.ReplaceAll(c.raw, "@", itoa(q.nextBlk-1))
			if got := e.String(); got != raw {
				t.Errorf("String():\n got %s\nwant %s", got, raw)
			}
			if got, want := q.SQL(), "SELECT 1 FROM EMP e WHERE "+c.disp; got != want {
				t.Errorf("display SQL:\n got %s\nwant %s", got, want)
			}
			if got, want := q.CanonicalKey(root), "SELECT 1 FROM EMP t0 WHERE "+c.key; got != want {
				t.Errorf("canonical key:\n got %s\nwant %s", got, want)
			}
		})
	}

	// A nested block keyed on its own names its correlated reference by
	// the outer item's table and alias, and an unresolvable reference by
	// its raw ID.
	s := sub()
	s.Where = append(s.Where, &Bin{Op: OpEq, L: s.Select[0].Expr, R: &Col{From: 99, Ord: 0, Name: "Z"}})
	root.Where = []Expr{&Subq{Kind: SubqExists, Block: s}}
	k := q.BlockKeyer()
	for i := 0; i < 2; i++ { // a reused keyer renders the same key
		if got, want := k.Key(s), "SELECT t0.#0 FROM DEPT t0 WHERE (t0.#2 = x:EMP~e.#4) AND (t0.#0 = x99.#0)"; got != want {
			t.Errorf("nested key:\n got %s\nwant %s", got, want)
		}
	}
	if got, want := q.SQL(), "SELECT 1 FROM EMP e WHERE EXISTS (SELECT d.DEPT_ID FROM DEPT d WHERE (d.LOC = e.LOC) AND (d.DEPT_ID = q99.Z))"; got != want {
		t.Errorf("display SQL:\n got %s\nwant %s", got, want)
	}
}

func itoa(i int) string {
	return datum.NewInt(int64(i)).String()
}

// TestRenderBlockForms pins the block-level display SQL and canonical key
// of bound queries covering every clause the block writer emits: DISTINCT,
// aliases, set operations with ORDER BY and ROWNUM, GROUPING SETS, HAVING,
// join kinds with ON conditions, lateral views and duplicate aliases.
func TestRenderBlockForms(t *testing.T) {
	db := testkit.NewDB(testkit.SmallSizes(), 1)
	cases := []struct {
		sql       string
		mutate    func(*Query) // shapes the binder never produces
		disp, key string
	}{
		{`SELECT DISTINCT e.employee_name n, e.salary * 2 s FROM employees e
		  WHERE e.dept_id = 3 AND ROWNUM <= 5 ORDER BY e.salary DESC`, nil,
			"SELECT DISTINCT e.EMPLOYEE_NAME n, (e.SALARY * 2) s FROM EMPLOYEES e WHERE (e.DEPT_ID = 3) AND ROWNUM <= 5 ORDER BY e.SALARY DESC",
			"SELECT DISTINCT t0.#1, (t0.#3 * 2) FROM EMPLOYEES t0 WHERE (t0.#2 = 3) AND ROWNUM <= 5 ORDER BY t0.#3 DESC"},
		{`SELECT e.dept_id, e.job_id, SUM(e.salary) FROM employees e
		  GROUP BY ROLLUP (e.dept_id, e.job_id) HAVING SUM(e.salary) > 10`, nil,
			"SELECT e.DEPT_ID DEPT_ID, e.JOB_ID JOB_ID, SUM(e.SALARY) FROM EMPLOYEES e GROUP BY GROUPING SETS ((e.DEPT_ID, e.JOB_ID), (e.DEPT_ID), ()) HAVING (SUM(e.SALARY) > 10)",
			"SELECT t0.#2, t0.#5, SUM(t0.#3) FROM EMPLOYEES t0 GROUP BY GROUPING SETS ((t0.#2, t0.#5), (t0.#2), ()) HAVING (SUM(t0.#3) > 10)"},
		{`SELECT e.emp_id FROM employees e UNION SELECT j.emp_id FROM job_history j ORDER BY emp_id`,
			func(q *Query) { q.Root.Limit = 4 },
			"(SELECT e.EMP_ID EMP_ID FROM EMPLOYEES e) UNION (SELECT j.EMP_ID EMP_ID FROM JOB_HISTORY j) ORDER BY EMP_ID /* ROWNUM <= 4 */",
			"(SELECT t0.#0 FROM EMPLOYEES t0) UNION (SELECT t1.#0 FROM JOB_HISTORY t1) ORDER BY EMP_ID /* ROWNUM <= 4 */"},
		{`SELECT e.emp_id, d.department_name FROM employees e LEFT OUTER JOIN departments d ON e.dept_id = d.dept_id AND d.budget > 1`, nil,
			"SELECT e.EMP_ID EMP_ID, d.DEPARTMENT_NAME DEPARTMENT_NAME FROM EMPLOYEES e, LEFT OUTER JOIN DEPARTMENTS d ON ((e.DEPT_ID = d.DEPT_ID) AND (d.BUDGET > 1))",
			"SELECT t0.#0, t1.#1 FROM EMPLOYEES t0, LEFT OUTER JOIN DEPARTMENTS t1 ON ((t0.#2 = t1.#0) AND (t1.#3 > 1))"},
		{`SELECT e.emp_id FROM employees e, (SELECT e.dept_id FROM employees e) v WHERE e.dept_id = v.dept_id`,
			func(q *Query) { q.Root.From[1].Lateral = true },
			"SELECT e.EMP_ID EMP_ID FROM EMPLOYEES e, LATERAL (SELECT e_2.DEPT_ID DEPT_ID FROM EMPLOYEES e_2) v WHERE (e.DEPT_ID = v.DEPT_ID)",
			"SELECT t0.#0 FROM EMPLOYEES t0, LATERAL (SELECT t1.#2 FROM EMPLOYEES t1) t2 WHERE (t0.#2 = t2.#0)"},
	}
	for _, c := range cases {
		q, err := BindSQL(c.sql, db.Catalog)
		if err != nil {
			t.Fatal(err)
		}
		if c.mutate != nil {
			c.mutate(q)
		}
		if got := q.SQL(); got != c.disp {
			t.Errorf("display SQL of %s:\n got %s\nwant %s", c.sql, got, c.disp)
		}
		if got := q.CanonicalKey(q.Root); got != c.key {
			t.Errorf("canonical key of %s:\n got %s\nwant %s", c.sql, got, c.key)
		}
	}
}

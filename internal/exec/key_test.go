package exec_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/optimizer"
	"repro/internal/testkit"
)

// TestHashKeysInjective runs grouping, duplicate elimination, set
// operations and a two-key hash join over string values that contain the
// bytes 0x1f 0x03. A key format that joins per-value encodings with a
// separator lets such a value forge a column boundary, so two different
// rows share one key; every operator must keep them apart on both engines.
func TestHashKeysInjective(t *testing.T) {
	exec.PoisonDeadSlots(t)
	db := testkit.NewDB(testkit.SmallSizes(), 1)
	const view = `(SELECT 'x` + "\x1f\x03" + `y' a, 'z' b FROM departments d WHERE d.dept_id = 1
	  UNION ALL SELECT 'x' a, 'y` + "\x1f\x03" + `z' b FROM departments d WHERE d.dept_id = 1) v`
	cases := []struct {
		name, sql, op string
		want          int
	}{
		{"distinct", `SELECT DISTINCT v.a, v.b FROM ` + view, "", 2},
		{"group-by", `SELECT v.a, v.b, COUNT(*) FROM ` + view + ` GROUP BY v.a, v.b`, "", 2},
		{"union", `SELECT 'x` + "\x1f\x03" + `y' a, 'z' b FROM departments d WHERE d.dept_id = 1
		  UNION SELECT 'x' a, 'y` + "\x1f\x03" + `z' b FROM departments d WHERE d.dept_id = 1`, "UNION", 2},
		// Left key (n 1f 03 n, n), right key (n, n 1f 03 n): equal under a
		// separator-joined format for every pair with equal names.
		{"hash-join", `SELECT d1.dept_id, d2.dept_id FROM departments d1, departments d2
		  WHERE d1.department_name || '` + "\x1f\x03" + `' || d1.department_name = d2.department_name
		  AND d1.department_name = d2.department_name || '` + "\x1f\x03" + `' || d2.department_name`, "Hash INNER Join", 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			plan := planSQL(t, db, c.sql)
			if text := optimizer.Explain(plan); !strings.Contains(text, c.op) {
				t.Fatalf("plan has no %q:\n%s", c.op, text)
			}
			for _, eng := range []struct {
				name string
				opts exec.Options
			}{{"row", exec.Options{RowExec: true}}, {"batch", exec.Options{}}} {
				res, err := exec.RunWith(context.Background(), db, plan, eng.opts)
				if err != nil {
					t.Fatalf("%s: %v", eng.name, err)
				}
				if len(res.Rows) != c.want {
					t.Errorf("%s engine: %d rows, want %d: %v", eng.name, len(res.Rows), c.want, sortedRows(res))
				}
				if c.name == "group-by" {
					for _, r := range res.Rows {
						if n := r[2].Int(); n != 1 {
							t.Errorf("%s engine: group %v counted %d rows, want 1", eng.name, r[:2], n)
						}
					}
				}
			}
		})
	}
}

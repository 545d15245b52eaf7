package cbqt

import (
	"context"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/exec"
	"repro/internal/optimizer"
	"repro/internal/qtree"
	"repro/internal/storage"
	"repro/internal/testkit"
	"repro/internal/workload"
)

// vecResultStrings renders result rows as sorted datum strings, the same
// normalization the CBQT differential oracle uses.
func vecResultStrings(res *exec.Result) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		parts := make([]string, len(r))
		for j, d := range r {
			parts[j] = d.String()
		}
		out[i] = strings.Join(parts, "|")
	}
	sort.Strings(out)
	return out
}

// underLimit marks every descendant of a Limit operator. Below a limit the
// two engines legitimately disagree on per-operator row counts: the row
// engine stops pulling child rows the moment the limit is satisfied, while
// the batch engine receives whole batches and cuts the surplus, so child
// operators may have produced up to one extra batch of rows.
func underLimit(plan *optimizer.Plan) map[optimizer.PlanNode]bool {
	m := map[optimizer.PlanNode]bool{}
	var walk func(n optimizer.PlanNode, under bool)
	walk = func(n optimizer.PlanNode, under bool) {
		if n == nil {
			return
		}
		if under {
			m[n] = true
		}
		_, isLimit := n.(*optimizer.Limit)
		for _, c := range n.Children() {
			walk(c, under || isLimit)
		}
	}
	walk(plan.Root, false)
	for _, sp := range plan.Subplans {
		walk(sp.Root, false)
	}
	return m
}

// checkVectorizedAgainstRow executes one optimized plan under both engines
// and requires identical result rows and identical per-operator logical row
// counts and open counts (outside limit subtrees).
func checkVectorizedAgainstRow(t *testing.T, db *storage.DB, plan *optimizer.Plan, sql string) {
	t.Helper()
	ctx := context.Background()
	resB, stB, err := exec.RunAnalyzeWith(ctx, db, plan, exec.Options{})
	if err != nil {
		t.Errorf("batch engine failed: %v\nsql: %s", err, sql)
		return
	}
	resR, stR, err := exec.RunAnalyzeWith(ctx, db, plan, exec.Options{RowExec: true})
	if err != nil {
		t.Errorf("row engine failed: %v\nsql: %s", err, sql)
		return
	}
	gotB, gotR := vecResultStrings(resB), vecResultStrings(resR)
	if !equalStrs(gotB, gotR) {
		t.Errorf("batch engine changed results (%d rows vs %d)\nsql: %s\nbatch: %v\nrow:   %v",
			len(gotB), len(gotR), sql, sample(gotB), sample(gotR))
		return
	}
	skip := underLimit(plan)
	for n, r := range stR.Ops {
		if skip[n] {
			continue
		}
		b, ok := stB.Ops[n]
		if !ok {
			// A subplan the row engine ran but the batch engine never
			// opened (or vice versa) is an execution divergence.
			t.Errorf("%s: executed by row engine only\nsql: %s", n.Label(), sql)
			continue
		}
		if b.Rows != r.Rows {
			t.Errorf("%s: batch engine produced %d logical rows, row engine %d\nsql: %s",
				n.Label(), b.Rows, r.Rows, sql)
		}
		if b.Opens != r.Opens {
			t.Errorf("%s: batch engine opened %d times, row engine %d\nsql: %s",
				n.Label(), b.Opens, r.Opens, sql)
		}
	}
	for n := range stB.Ops {
		if _, ok := stR.Ops[n]; !ok && !skip[n] {
			t.Errorf("%s: executed by batch engine only\nsql: %s", n.Label(), sql)
		}
	}
}

// sample truncates long row lists in failure messages.
func sample(rows []string) []string {
	if len(rows) > 8 {
		return rows[:8]
	}
	return rows
}

// TestDifferentialVectorized is the batch-vs-row oracle: every workload
// query (plus explicit window, set-operation and rownum-view queries, which
// exercise the row-bridged operators and the vectorized limit) is optimized
// once, then executed under the vectorized and the row-at-a-time engine.
// Results, per-operator logical row counts and open counts must be
// identical — first sequentially, then with eight goroutines sharing the
// database to surface data races in the batch path under -race.
func TestDifferentialVectorized(t *testing.T) {
	db := testkit.NewDB(testkit.SmallSizes(), 7)
	s := testkit.SmallSizes()
	cfg := workload.DefaultConfig(13, 120, s.Employees, s.Departments, s.Jobs)
	cfg.RelevantFraction = 0.7
	queries := workload.Generate(cfg)
	if len(queries) < 100 {
		t.Fatalf("generated only %d queries, want >= 100", len(queries))
	}
	// The random mix may under-sample the operators that stay row-based
	// inside the batch engine; pin coverage of the bridges.
	for _, cl := range []workload.Class{workload.ClassWindow, workload.ClassUnionAll, workload.ClassPullup} {
		queries = append(queries, workload.GenerateClass(17, 6, cfg, cl)...)
	}

	opts := DefaultOptions()
	type planned struct {
		sql  string
		plan *optimizer.Plan
	}
	plans := make([]planned, 0, len(queries))
	for _, wq := range queries {
		q := qtree.MustBind(wq.SQL, db.Catalog)
		o := &Optimizer{Cat: db.Catalog, Opts: opts}
		res, err := o.Optimize(q)
		if err != nil {
			t.Fatalf("cbqt: %v\nsql: %s", err, wq.SQL)
		}
		plans = append(plans, planned{sql: wq.SQL, plan: res.Plan})
	}

	t.Run("sequential", func(t *testing.T) {
		for _, p := range plans {
			checkVectorizedAgainstRow(t, db, p.plan, p.sql)
		}
	})

	// The work queue hands each plan to exactly one worker, so iterators
	// are never shared; what the goroutines do share is the storage layer
	// and the read-only plan trees, which must stay race-free under the
	// batch engine.
	t.Run("parallel8", func(t *testing.T) {
		work := make(chan planned, len(plans))
		for _, p := range plans {
			work <- p
		}
		close(work)
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for p := range work {
					checkVectorizedAgainstRow(t, db, p.plan, p.sql)
				}
			}()
		}
		wg.Wait()
	})
}

package cbqt_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/cbqt"
	"repro/internal/optimizer"
	"repro/internal/qtree"
	"repro/internal/storage"
	"repro/internal/testkit"
)

var updateDecisions = flag.Bool("update-decisions", false, "rewrite testdata/decisions.txt from the current optimizer")

// decisionCorpus is the fixed corpus whose decisions TestDecisionIdentity
// pins: the Table 2 family at one to ten subqueries, then the per-class
// texts of bench.AdhocCorpus for seeds 1 to 5 (the family texts it repeats
// per seed are left out).
func decisionCorpus() []string {
	var out []string
	for n := 1; n <= 10; n++ {
		out = append(out, bench.Table2FamilyQuery(n))
	}
	for seed := int64(1); seed <= 5; seed++ {
		adhoc := bench.AdhocCorpus(seed)
		out = append(out, adhoc[4:]...)
	}
	return out
}

// TestDecisionIdentity pins every decision the optimizer makes over
// decisionCorpus, on small and medium data, under the default strategy and
// under exhaustive search: the transformed SQL, the search's
// state, block and annotation-hit counts, and each plan operator with its
// exact cost and row estimate as hex floats. A change that claims to move no
// decision (a faster search, a pass over finished plans) must leave
// testdata/decisions.txt byte-identical; one that moves decisions on purpose
// regenerates it with -update-decisions and explains the diff.
func TestDecisionIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("optimizes the whole decision corpus twice on two data sizes")
	}
	path := filepath.Join("testdata", "decisions.txt")
	corpus := decisionCorpus()
	var sb strings.Builder
	for _, data := range []struct {
		name string
		db   *storage.DB
	}{
		{"small", testkit.NewDB(testkit.SmallSizes(), 7)},
		{"medium", testkit.NewDB(testkit.MediumSizes(), 1)},
	} {
		for _, strat := range []struct {
			name  string
			strat cbqt.Strategy
		}{{"auto", cbqt.StrategyAuto}, {"exhaustive", cbqt.StrategyExhaustive}} {
			opts := cbqt.DefaultOptions()
			opts.Strategy = strat.strat
			o := &cbqt.Optimizer{Cat: data.db.Catalog, Opts: opts}
			for i, src := range corpus {
				res, err := o.Optimize(qtree.MustBind(src, data.db.Catalog))
				if err != nil {
					t.Fatalf("%s/%s/%d: %v\nsql: %s", data.name, strat.name, i, err, src)
				}
				st := res.Stats
				fmt.Fprintf(&sb, "== %s/%s/%d states=%d blocks=%d hits=%d\n%s\n",
					data.name, strat.name, i, st.StatesEvaluated, st.BlocksOptimized, st.CacheHits, res.Query.SQL())
				sb.WriteString(optimizer.ExplainWith(res.Plan, func(n optimizer.PlanNode) string {
					c := n.Cost()
					return " " + strconv.FormatFloat(c.Total, 'x', -1, 64) + " " + strconv.FormatFloat(c.Rows, 'x', -1, 64)
				}))
			}
		}
	}
	got := []byte(sb.String())
	if *updateDecisions {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing %s (run with -update-decisions to create): %v", path, err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	entry := ""
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if strings.HasPrefix(w, "== ") {
			entry = w
		}
		if g != w {
			t.Fatalf("a decision moved in %s, line %d\ngot:  %s\nwant: %s", entry, i+1, g, w)
		}
	}
}

package cbqt

import (
	"context"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/qtree"
)

// actualRowsRE extracts the logical row counters from an EXPLAIN ANALYZE
// rendering. It is anchored on "actual rows=" so the planner's estimated
// rows= inside cost annotations are not picked up.
var actualRowsRE = regexp.MustCompile(`actual rows=(\d+)`)

func actualRowsSeq(rendered string) string {
	var sb strings.Builder
	for _, m := range actualRowsRE.FindAllStringSubmatch(rendered, -1) {
		sb.WriteString(m[1])
		sb.WriteByte(',')
	}
	return sb.String()
}

// TestAnalyzeRowCountsEngineInvariant pins the engine-independence of the
// EXPLAIN ANALYZE row accounting: for the golden workloads, the top-down
// sequence of per-operator logical row counts must be byte-for-byte
// identical between the batch engine, the row engine, and the committed
// golden snapshot. nexts= and batches= are allowed to differ (they count
// engine calls); actual rows= is not.
func TestAnalyzeRowCountsEngineInvariant(t *testing.T) {
	ctx := context.Background()
	for _, tc := range traceCases() {
		t.Run(tc.name, func(t *testing.T) {
			opts := DefaultOptions()
			q := qtree.MustBind(tc.sql, tc.db.Catalog)
			o := &Optimizer{Cat: tc.db.Catalog, Opts: opts}
			res, err := o.Optimize(q)
			if err != nil {
				t.Fatal(err)
			}
			_, rsBatch, err := exec.RunAnalyzeWith(ctx, tc.db, res.Plan, exec.Options{})
			if err != nil {
				t.Fatal(err)
			}
			_, rsRow, err := exec.RunAnalyzeWith(ctx, tc.db, res.Plan, exec.Options{RowExec: true})
			if err != nil {
				t.Fatal(err)
			}
			batchSeq := actualRowsSeq(exec.ExplainAnalyze(res.Plan, rsBatch, false))
			rowSeq := actualRowsSeq(exec.ExplainAnalyze(res.Plan, rsRow, false))
			if batchSeq == "" {
				t.Fatal("no actual rows= counters in the batch rendering")
			}
			if batchSeq != rowSeq {
				t.Errorf("row counts diverge between engines\nbatch: %s\nrow:   %s", batchSeq, rowSeq)
			}

			golden, err := os.ReadFile(filepath.Join("testdata", "golden", tc.name+"_analyze.txt"))
			if err != nil {
				t.Fatalf("missing golden snapshot (run TestGoldenExplainAnalyze -update): %v", err)
			}
			if goldenSeq := actualRowsSeq(string(golden)); goldenSeq != batchSeq {
				t.Errorf("row counts diverge from the committed golden\nbatch:  %s\ngolden: %s", batchSeq, goldenSeq)
			}
		})
	}
}

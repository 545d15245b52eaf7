package workload

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/optimizer"
	"repro/internal/qtree"
	"repro/internal/sql"
	"repro/internal/storage"
)

// replayStep executes one generated op and renders its result: sorted row
// strings for a query, the affected-count/commit-timestamp pair for a
// mutation. Two engines replaying the same interleaving must render every
// step identically.
func replayStep(t *testing.T, db *storage.DB, op DMLOp) string {
	t.Helper()
	if op.IsQuery {
		q, err := qtree.BindSQL(op.SQL, db.Catalog)
		if err != nil {
			t.Fatalf("op %d bind %q: %v", op.ID, op.SQL, err)
		}
		plan, err := optimizer.New(db.Catalog).Optimize(q)
		if err != nil {
			t.Fatalf("op %d optimize %q: %v", op.ID, op.SQL, err)
		}
		res, err := exec.Run(db, plan)
		if err != nil {
			t.Fatalf("op %d run %q: %v", op.ID, op.SQL, err)
		}
		rows := make([]string, len(res.Rows))
		for i, r := range res.Rows {
			parts := make([]string, len(r))
			for j, d := range r {
				parts[j] = d.String()
			}
			rows[i] = strings.Join(parts, "|")
		}
		sort.Strings(rows)
		return strings.Join(rows, "\n")
	}
	stmt, err := sql.ParseStatement(op.SQL)
	if err != nil {
		t.Fatalf("op %d parse %q: %v", op.ID, op.SQL, err)
	}
	bound, err := qtree.BindStatement(stmt, db.Catalog)
	if err != nil {
		t.Fatalf("op %d bind %q: %v", op.ID, op.SQL, err)
	}
	dml := bound.(*qtree.DMLStmt)
	var plan *optimizer.Plan
	if dml.Read != nil {
		plan, err = optimizer.New(db.Catalog).Optimize(dml.Read)
		if err != nil {
			t.Fatalf("op %d optimize %q: %v", op.ID, op.SQL, err)
		}
	}
	res, err := exec.RunDML(context.Background(), db, dml, plan, nil, exec.Options{})
	if err != nil {
		t.Fatalf("op %d dml %q: %v", op.ID, op.SQL, err)
	}
	return fmt.Sprintf("affected=%d ts=%d", res.Affected, res.CommitTS)
}

// newDMLDB builds a DB over the given engine with the mix's target table.
func newDMLDB(t *testing.T, db *storage.DB) *storage.DB {
	t.Helper()
	if _, err := db.CreateTable(DMLTableSchema()); err != nil {
		t.Fatal(err)
	}
	db.Finalize()
	return db
}

// dumpDML renders every visible row of the mix table, sorted.
func dumpDML(t *testing.T, db *storage.DB) string {
	t.Helper()
	return replayStep(t, db, DMLOp{SQL: "SELECT ID, GRP, VAL, NOTE FROM " + DMLTableName, IsQuery: true})
}

// TestEngineDifferential is the engine oracle: the same seeded DML+query
// interleaving replays against the in-memory engine and the disk-backed
// WAL engine, and every step — affected counts, commit timestamps, query
// results — must render identically. The disk engine then reopens from
// its log and must still hold the identical final state.
func TestEngineDifferential(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			ops := GenerateDML(DMLConfig{Seed: seed, Steps: 400})
			nq, nm := 0, 0
			for _, op := range ops {
				if op.IsQuery {
					nq++
				} else {
					nm++
				}
			}
			if nq == 0 || nm == 0 {
				t.Fatalf("degenerate mix: %d queries, %d mutations", nq, nm)
			}

			mem := newDMLDB(t, storage.NewDB(catalog.New()))
			dir := t.TempDir()
			ddb, err := storage.OpenDiskEngine(dir, catalog.New())
			if err != nil {
				t.Fatal(err)
			}
			disk := newDMLDB(t, ddb)

			for _, op := range ops {
				got := replayStep(t, disk, op)
				want := replayStep(t, mem, op)
				if got != want {
					t.Fatalf("op %d %q diverged:\nmem:  %s\ndisk: %s", op.ID, op.SQL, want, got)
				}
			}

			finalMem := dumpDML(t, mem)
			if err := disk.Close(); err != nil {
				t.Fatal(err)
			}
			disk2, err := storage.OpenDiskEngine(dir, catalog.New())
			if err != nil {
				t.Fatal(err)
			}
			defer disk2.Close()
			if got := dumpDML(t, disk2); got != finalMem {
				t.Fatalf("reopened disk state diverged from mem:\nmem:  %s\ndisk: %s", finalMem, got)
			}
		})
	}
}

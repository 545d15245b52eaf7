package storage

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datum"
	"repro/internal/obsv"
)

func mvccDB(t *testing.T) *DB {
	t.Helper()
	return loadDB(t, &catalog.Table{
		Name: "T",
		Cols: []catalog.Column{
			{Name: "ID", Type: datum.KInt},
			{Name: "V", Type: datum.KString},
		},
		PrimaryKey: []int{0},
		Indexes:    []*catalog.Index{{Name: "T_PK", Cols: []int{0}, Unique: true}},
	},
		[]datum.Datum{datum.NewInt(1), datum.NewString("a")},
		[]datum.Datum{datum.NewInt(2), datum.NewString("b")})
}

func visibleIDs(t *testing.T, view *Table) []int64 {
	t.Helper()
	var ids []int64
	for i, r := range view.Rows {
		if view.Visible(i) {
			ids = append(ids, r[0].Int())
		}
	}
	return ids
}

func TestSnapshotIsolation(t *testing.T) {
	db := mvccDB(t)

	snap := db.Snapshot() // before any commit
	before := visibleIDs(t, snap.Table("T"))
	if fmt.Sprint(before) != "[1 2]" {
		t.Fatalf("initial snapshot = %v", before)
	}

	// Commit an insert and a delete after the snapshot was taken.
	b := db.NewBatch()
	if err := b.Insert("T", []datum.Datum{datum.NewInt(3), datum.NewString("c")}); err != nil {
		t.Fatal(err)
	}
	if err := b.Delete("T", 0); err != nil { // delete id=1
		t.Fatal(err)
	}
	ts, err := db.Commit(b)
	if err != nil {
		t.Fatal(err)
	}
	if ts != snap.TS()+1 {
		t.Errorf("commit ts = %d, want %d", ts, snap.TS()+1)
	}

	// The old snapshot is byte-identical to before the commit.
	if got := fmt.Sprint(visibleIDs(t, snap.Table("T"))); got != fmt.Sprint(before) {
		t.Errorf("old snapshot changed after commit: %v", got)
	}
	// A fresh snapshot sees the commit.
	after := visibleIDs(t, db.Snapshot().Table("T"))
	if fmt.Sprint(after) != "[2 3]" {
		t.Errorf("fresh snapshot = %v, want [2 3]", after)
	}
}

func TestUpdateIsDeletePlusInsert(t *testing.T) {
	db := mvccDB(t)
	b := db.NewBatch()
	if err := b.Update("T", 1, []datum.Datum{datum.NewInt(2), datum.NewString("b2")}); err != nil {
		t.Fatal(err)
	}
	if b.Inserted() != 1 || b.Deleted() != 1 {
		t.Errorf("update counts = %d ins / %d del", b.Inserted(), b.Deleted())
	}
	if _, err := db.Commit(b); err != nil {
		t.Fatal(err)
	}
	view := db.Snapshot().Table("T")
	var got []string
	for i, r := range view.Rows {
		if view.Visible(i) {
			got = append(got, r[1].Str())
		}
	}
	if fmt.Sprint(got) != "[a b2]" {
		t.Errorf("after update: %v", got)
	}
	if view.NumVisible() != 2 || len(view.Rows) != 3 {
		t.Errorf("visible=%d heap=%d, want 2/3", view.NumVisible(), len(view.Rows))
	}
}

func TestWriteWriteConflict(t *testing.T) {
	db := mvccDB(t)
	b1 := db.NewBatch()
	b2 := db.NewBatch()
	if err := b1.Delete("T", 0); err != nil {
		t.Fatal(err)
	}
	if err := b2.Update("T", 0, []datum.Datum{datum.NewInt(1), datum.NewString("a2")}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Commit(b1); err != nil {
		t.Fatal(err)
	}
	// First committer wins: b2 targets the now-dead version.
	if _, err := db.Commit(b2); !errors.Is(err, ErrWriteConflict) {
		t.Errorf("second commit err = %v, want ErrWriteConflict", err)
	}
}

// TestIndexMaintainedByCommits checks that a commit after Finalize keeps
// every index current and in key order, including for keys that land
// before and after the existing ones.
func TestIndexMaintainedByCommits(t *testing.T) {
	db := mvccDB(t)
	b := db.NewBatch()
	for _, r := range []struct {
		id int64
		v  string
	}{{7, "g"}, {0, "z"}} {
		if err := b.Insert("T", []datum.Datum{datum.NewInt(r.id), datum.NewString(r.v)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Commit(b); err != nil {
		t.Fatal(err)
	}
	view := db.Snapshot().Table("T")
	ix := view.Index("T_PK")
	got := view.FilterVisible(ix.EqualRange([]datum.Datum{datum.NewInt(7)}))
	if len(got) != 1 || view.Rows[got[0]][1].Str() != "g" {
		t.Errorf("index probe for committed insert = %v", got)
	}
	all := ix.Range(datum.Null, false, false, datum.Null, false, false)
	var ids []int64
	for _, rid := range all {
		ids = append(ids, view.Rows[rid][0].Int())
	}
	if fmt.Sprint(ids) != "[0 1 2 7]" {
		t.Errorf("index order after commit = %v, want [0 1 2 7]", ids)
	}
}

func TestSnapshotStableUnderConcurrentCommits(t *testing.T) {
	db := mvccDB(t)
	const writers = 4
	const commitsPerWriter = 200
	startVersion := db.Catalog.DataVersion()

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := db.Snapshot()
				view := snap.Table("T")
				first := fmt.Sprint(visibleIDs(t, view))
				// Re-reading through the same snapshot must be stable no
				// matter how many commits land meanwhile.
				for k := 0; k < 3; k++ {
					if got := fmt.Sprint(visibleIDs(t, snap.Table("T"))); got != first {
						panic(fmt.Sprintf("snapshot drifted: %s -> %s", first, got))
					}
				}
			}
		}()
	}

	var writersWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			for i := 0; i < commitsPerWriter; i++ {
				b := db.NewBatch()
				id := int64(1000 + w*commitsPerWriter + i)
				if err := b.Insert("T", []datum.Datum{datum.NewInt(id), datum.NewString("w")}); err != nil {
					panic(err)
				}
				if _, err := db.Commit(b); err != nil {
					panic(err)
				}
			}
		}(w)
	}
	writersWG.Wait()
	close(stop)
	readers.Wait()

	if got := db.Snapshot().Table("T").NumVisible(); got != 2+writers*commitsPerWriter {
		t.Errorf("final visible rows = %d, want %d", got, 2+writers*commitsPerWriter)
	}
	if dv := db.Catalog.DataVersion() - startVersion; dv != int64(writers*commitsPerWriter) {
		t.Errorf("data version advanced by %d, want %d", dv, writers*commitsPerWriter)
	}
}

func TestAnalyzeSkipsDeadVersions(t *testing.T) {
	db := mvccDB(t)
	b := db.NewBatch()
	if err := b.Delete("T", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Commit(b); err != nil {
		t.Fatal(err)
	}
	if err := db.AnalyzeTable("T"); err != nil {
		t.Fatal(err)
	}
	st := db.Catalog.Table("T").Stats()
	if st.RowCount != 1 {
		t.Errorf("RowCount after delete+analyze = %d, want 1", st.RowCount)
	}
}

func TestMvccMetrics(t *testing.T) {
	db := mvccDB(t)
	reg := obsv.NewRegistry()
	db.Metrics(reg)
	b := db.NewBatch()
	if err := b.Insert("T", []datum.Datum{datum.NewInt(9), datum.NewString("i")}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Commit(b); err != nil {
		t.Fatal(err)
	}
	db.Snapshot()
	s := reg.Snapshot()
	if s.Counters["storage.mvcc.commits"] != 1 {
		t.Errorf("commits = %d", s.Counters["storage.mvcc.commits"])
	}
	if s.Counters["storage.mvcc.rows_inserted"] != 1 {
		t.Errorf("rows_inserted = %d", s.Counters["storage.mvcc.rows_inserted"])
	}
	if s.Counters["storage.mvcc.snapshots"] != 1 {
		t.Errorf("snapshots = %d", s.Counters["storage.mvcc.snapshots"])
	}
}

func TestEmptyBatchCommit(t *testing.T) {
	db := mvccDB(t)
	before := db.Snapshot().TS()
	startVersion := db.Catalog.DataVersion()
	ts, err := db.Commit(db.NewBatch())
	if err != nil {
		t.Fatal(err)
	}
	if ts != before {
		t.Errorf("empty commit advanced the oracle: %d -> %d", before, ts)
	}
	if dv := db.Catalog.DataVersion(); dv != startVersion {
		t.Errorf("empty commit bumped data version %d -> %d", startVersion, dv)
	}
}

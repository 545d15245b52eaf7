package storage

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datum"
	"repro/internal/obsv"
)

func diskDB(t *testing.T, dir string) *DB {
	t.Helper()
	db, err := OpenDiskEngine(dir, catalog.New())
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func tMeta() *catalog.Table {
	return &catalog.Table{
		Name: "T",
		Cols: []catalog.Column{
			{Name: "ID", Type: datum.KInt},
			{Name: "V", Type: datum.KString, Nullable: true},
			{Name: "F", Type: datum.KFloat},
			{Name: "B", Type: datum.KBool},
		},
		PrimaryKey: []int{0},
		Indexes:    []*catalog.Index{{Name: "T_PK", Cols: []int{0}, Unique: true}},
	}
}

func insertT(t *testing.T, db *DB, id int64, v datum.Datum, f float64, bl bool) {
	t.Helper()
	b := db.NewBatch()
	if err := b.Insert("T", []datum.Datum{datum.NewInt(id), v, datum.NewFloat(f), datum.NewBool(bl)}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Commit(b); err != nil {
		t.Fatal(err)
	}
}

func dumpT(t *testing.T, db *DB) string {
	t.Helper()
	view := db.Snapshot().Table("T")
	if view == nil {
		return "<no table>"
	}
	out := ""
	for i, r := range view.Rows {
		if view.Visible(i) {
			out += fmt.Sprintf("%v|%v|%v|%v\n", r[0], r[1], r[2], r[3])
		}
	}
	return out
}

func TestDiskEngineRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db := diskDB(t, dir)
	if _, err := db.CreateTable(tMeta()); err != nil {
		t.Fatal(err)
	}
	insertT(t, db, 1, datum.NewString("a"), 1.5, true)
	insertT(t, db, 2, datum.Null, -2.25, false)
	insertT(t, db, 3, datum.NewString("c"), 0, true)
	b := db.NewBatch()
	if err := b.Update("T", 0, []datum.Datum{datum.NewInt(1), datum.NewString("a2"), datum.NewFloat(9.5), datum.NewBool(false)}); err != nil {
		t.Fatal(err)
	}
	if err := b.Delete("T", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Commit(b); err != nil {
		t.Fatal(err)
	}
	want := dumpT(t, db)
	wantTS := db.Snapshot().TS()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: replay must reproduce exactly the committed state.
	db2 := diskDB(t, dir)
	if got := dumpT(t, db2); got != want {
		t.Errorf("replayed state:\n%s\nwant:\n%s", got, want)
	}
	if ts := db2.Snapshot().TS(); ts != wantTS {
		t.Errorf("replayed oracle = %d, want %d", ts, wantTS)
	}
	// Schema replayed in full.
	meta := db2.Catalog.Table("T")
	if meta == nil || len(meta.Cols) != 4 || len(meta.PrimaryKey) != 1 || len(meta.Indexes) != 1 {
		t.Fatalf("replayed meta = %+v", meta)
	}
	// Indexes rebuilt and statistics collected on open.
	view := db2.Snapshot().Table("T")
	if view.Index("T_PK") == nil {
		t.Error("index not rebuilt on open")
	}
	if st := meta.Stats(); st == nil || st.RowCount != 2 {
		t.Errorf("stats after open = %+v", st)
	}
	// And the reopened engine keeps accepting commits.
	insertT(t, db2, 4, datum.NewString("d"), 4.0, true)
	if got := db2.Snapshot().Table("T").NumVisible(); got != 3 {
		t.Errorf("visible after post-reopen insert = %d, want 3", got)
	}
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestWalTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	db := diskDB(t, dir)
	if _, err := db.CreateTable(tMeta()); err != nil {
		t.Fatal(err)
	}
	insertT(t, db, 1, datum.NewString("a"), 1, true)
	insertT(t, db, 2, datum.NewString("b"), 2, true)
	want := dumpT(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: write a garbage half-record at the tail.
	segs, err := walSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	last := filepath.Join(dir, segs[len(segs)-1])
	f, err := os.OpenFile(last, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	reg := obsv.NewRegistry()
	db2 := diskDB(t, dir)
	db2.Metrics(reg)
	if got := dumpT(t, db2); got != want {
		t.Errorf("state after torn tail:\n%s\nwant:\n%s", got, want)
	}
	if got := reg.CounterValue("storage.wal.replayed_commits"); got != 2 {
		t.Errorf("storage.wal.replayed_commits = %d, want 2", got)
	}
	if got := reg.CounterValue("storage.wal.torn_tails"); got != 1 {
		t.Errorf("storage.wal.torn_tails = %d, want 1", got)
	}
	// The torn bytes were truncated away, so reopening once more is clean.
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}
	db3 := diskDB(t, dir)
	if got := dumpT(t, db3); got != want {
		t.Errorf("state after second reopen:\n%s\nwant:\n%s", got, want)
	}
	db3.Close()
}

func TestWalCorruptMiddleRecordCutsTail(t *testing.T) {
	dir := t.TempDir()
	db := diskDB(t, dir)
	if _, err := db.CreateTable(tMeta()); err != nil {
		t.Fatal(err)
	}
	insertT(t, db, 1, datum.NewString("a"), 1, true)
	afterFirst := dumpT(t, db)
	sizeAfterFirst := walSize(t, dir)
	insertT(t, db, 2, datum.NewString("b"), 2, true)
	db.Close()

	// Corrupt one byte inside the second commit's record: CRC must reject
	// it, and recovery keeps only the prefix before it.
	segs, _ := walSegments(dir)
	last := filepath.Join(dir, segs[len(segs)-1])
	data, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	data[sizeAfterFirst+10] ^= 0xff
	if err := os.WriteFile(last, data, 0o644); err != nil {
		t.Fatal(err)
	}

	db2 := diskDB(t, dir)
	if got := dumpT(t, db2); got != afterFirst {
		t.Errorf("state after mid-record corruption:\n%s\nwant:\n%s", got, afterFirst)
	}
	db2.Close()
}

func walSize(t *testing.T, dir string) int64 {
	t.Helper()
	segs, err := walSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	st, err := os.Stat(filepath.Join(dir, segs[len(segs)-1]))
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

func TestWalSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	db := diskDB(t, dir)
	if _, err := db.CreateTable(tMeta()); err != nil {
		t.Fatal(err)
	}
	// Big string payloads force rotation past the 4 MiB threshold quickly.
	long := make([]byte, 256<<10)
	for i := range long {
		long[i] = 'x'
	}
	for i := 0; i < 20; i++ {
		insertT(t, db, int64(i), datum.NewString(string(long)), 0, false)
	}
	want := db.Snapshot().Table("T").NumVisible()
	db.Close()
	segs, err := walSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("expected rotation, got %d segment(s)", len(segs))
	}
	db2 := diskDB(t, dir)
	if got := db2.Snapshot().Table("T").NumVisible(); got != want {
		t.Errorf("visible after multi-segment replay = %d, want %d", got, want)
	}
	db2.Close()
}

func TestMirror(t *testing.T) {
	src := mvccDB(t)
	dir := t.TempDir()
	dst := diskDB(t, dir)
	if err := Mirror(src, dst); err != nil {
		t.Fatal(err)
	}
	a := fmt.Sprint(visibleIDs(t, src.Snapshot().Table("T")))
	b := fmt.Sprint(visibleIDs(t, dst.Snapshot().Table("T")))
	if a != b {
		t.Errorf("mirror mismatch: %s vs %s", a, b)
	}
	// Mirrored data survives a reopen.
	dst.Close()
	dst2 := diskDB(t, dir)
	if got := fmt.Sprint(visibleIDs(t, dst2.Snapshot().Table("T"))); got != a {
		t.Errorf("mirror after reopen = %s, want %s", got, a)
	}
	dst2.Close()
}

func TestClosedDiskDBRejectsWrites(t *testing.T) {
	dir := t.TempDir()
	db := diskDB(t, dir)
	if _, err := db.CreateTable(tMeta()); err != nil {
		t.Fatal(err)
	}
	insertT(t, db, 1, datum.NewString("a"), 1, true)
	want := dumpT(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	b := db.NewBatch()
	if err := b.Insert("T", []datum.Datum{datum.NewInt(2), datum.Null, datum.NewFloat(2), datum.NewBool(false)}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Commit(b); !errors.Is(err, ErrClosed) {
		t.Errorf("Commit after Close: err = %v, want ErrClosed", err)
	}
	u := tMeta()
	u.Name = "U"
	u.Indexes = nil
	if _, err := db.CreateTable(u); !errors.Is(err, ErrClosed) {
		t.Errorf("CreateTable after Close: err = %v, want ErrClosed", err)
	}
	if got := dumpT(t, db); got != want {
		t.Errorf("state after rejected commit:\n%s\nwant:\n%s", got, want)
	}
	if db.Catalog.Table("U") != nil || db.Table("U") != nil {
		t.Error("rejected CREATE TABLE was registered")
	}

	db2 := diskDB(t, dir)
	defer db2.Close()
	if got := dumpT(t, db2); got != want {
		t.Errorf("state after reopen:\n%s\nwant:\n%s", got, want)
	}
	if db2.Catalog.Table("U") != nil {
		t.Error("rejected CREATE TABLE survived a reopen")
	}
}

package storage_test

import (
	"fmt"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datum"
	"repro/internal/storage"
	"repro/internal/testkit"
)

const loadSeed = 7

// checkVersionLens fails unless every table head of db has one begin and
// one end stamp per heap row: Visible indexes all three without a bounds
// guard.
func checkVersionLens(t *testing.T, db *storage.DB, when string) {
	t.Helper()
	for _, name := range db.Engine().TableNames() {
		rows, begin, ends := db.Table(name).VersionLens()
		if begin != rows || ends != rows {
			t.Errorf("%s: %s has %d rows, %d begin and %d end stamps", when, name, rows, begin, ends)
		}
	}
}

// heap renders every table's visible rows in heap order.
func heap(db *storage.DB) string {
	out := ""
	for _, name := range db.Engine().TableNames() {
		out += name + "\n"
		for _, r := range db.Snapshot().Table(name).VisibleRows() {
			out += fmt.Sprintln(r)
		}
	}
	return out
}

func openDisk(t *testing.T, dir string) *storage.DB {
	t.Helper()
	cat := catalog.New()
	eng, err := storage.OpenDiskEngine(dir, cat)
	if err != nil {
		t.Fatal(err)
	}
	return storage.NewDBWithEngine(cat, eng)
}

// churn commits one insert, one update and one delete into LOCATIONS.
func churn(t *testing.T, db *storage.DB) {
	t.Helper()
	b := db.NewBatch()
	row := func(id int64) []datum.Datum {
		return []datum.Datum{datum.NewInt(id), datum.NewString("x"), datum.NewString("NL")}
	}
	if err := b.Insert("LOCATIONS", row(9001)); err != nil {
		t.Fatal(err)
	}
	if err := b.Update("LOCATIONS", 0, row(9002)); err != nil {
		t.Fatal(err)
	}
	if err := b.Delete("LOCATIONS", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Commit(b); err != nil {
		t.Fatal(err)
	}
}

func TestVersionArraysMatchHeap(t *testing.T) {
	mem := testkit.NewDB(testkit.SmallSizes(), loadSeed)
	checkVersionLens(t, mem, "after a testkit load")
	churn(t, mem)
	checkVersionLens(t, mem, "after commits")

	dir := t.TempDir()
	disk := openDisk(t, dir)
	if err := testkit.Load(disk, testkit.SmallSizes(), loadSeed); err != nil {
		t.Fatal(err)
	}
	churn(t, disk)
	if err := disk.Close(); err != nil {
		t.Fatal(err)
	}
	replayed := openDisk(t, dir)
	defer replayed.Close()
	checkVersionLens(t, replayed, "after WAL replay")
}

// TestDiskLoadMatchesNewDB pins what the benchmark's reference check relies
// on: a disk engine loaded with testkit.Load, before and after a reopen,
// holds the same visible rows in the same heap order as testkit.NewDB with
// the same seed, and the reopened engine has its indexes and statistics.
func TestDiskLoadMatchesNewDB(t *testing.T) {
	want := heap(testkit.NewDB(testkit.SmallSizes(), loadSeed))
	dir := t.TempDir()
	disk := openDisk(t, dir)
	if err := testkit.Load(disk, testkit.SmallSizes(), loadSeed); err != nil {
		t.Fatal(err)
	}
	if got := heap(disk); got != want {
		t.Fatal("disk load differs from testkit.NewDB")
	}
	if err := disk.Close(); err != nil {
		t.Fatal(err)
	}
	reopened := openDisk(t, dir)
	defer reopened.Close()
	if got := heap(reopened); got != want {
		t.Fatal("reopened disk load differs from testkit.NewDB")
	}
	emp := reopened.Table("EMPLOYEES")
	if emp.Index("EMP_PK") == nil || emp.Meta.Stats() == nil || emp.Meta.Stats().RowCount != int64(testkit.SmallSizes().Employees) {
		t.Error("reopened engine lacks EMPLOYEES indexes or statistics")
	}
}

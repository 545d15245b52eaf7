// Package storage implements the transactional storage subsystem: heap
// tables with multi-version rows (snapshot-isolation MVCC), ordered
// secondary indexes with binary-search range scans maintained incrementally
// by the write path, the ANALYZE pass that collects the optimizer
// statistics defined in package catalog, and a pluggable Engine interface
// with two implementations — the in-memory engine and a disk-backed
// append-log engine (segmented WAL, fsync-on-commit, crash-recovery
// replay).
//
// Concurrency model: every published *Table is an immutable version view.
// Readers acquire a Snapshot (a read timestamp plus the table heads at that
// instant) and never block writers; writers commit WriteBatches that build
// the next version copy-on-write and publish it with an atomic pointer
// swap. Row versions carry begin/end commit timestamps; a version is
// visible to a snapshot at ts when begin <= ts < end.
package storage

import (
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/catalog"
	"repro/internal/datum"
)

// Row is a table row: one datum per declared column.
type Row []datum.Datum

// Table is one immutable published version of a table: the version heap
// (all row versions, live and dead), the MVCC metadata deciding which are
// visible at this view's snapshot timestamp, and the indexes built over the
// heap. Scans must skip rows for which Visible reports false.
//
// The zero begin/ends arrays (NewTable + direct Append before any MVCC
// commit) describe the non-transactional bulk-load path: rows appended
// directly are stamped with the view's own timestamp and are immediately
// visible. Direct Append is not safe concurrently with serving; committed
// writes go through an Engine's WriteBatch.
type Table struct {
	Meta *catalog.Table
	Rows []Row
	// begin[i] is the commit timestamp of version i; the version exists
	// for snapshots at ts >= begin[i]. Written only before its slot is
	// published (happens-before via the head pointer swap), so plain reads
	// are safe.
	begin []uint64
	// ends[i] is 0 while version i is live, else the commit timestamp of
	// the deleting transaction. Stamped in place by commits while readers
	// share the array, so all access is atomic.
	ends []uint64
	// ts is this view's visibility horizon (snapshot timestamp).
	ts      uint64
	indexes map[string]*Index // by index name
}

// NewTable creates an empty table for the given metadata. The result is a
// load-time head: Append mutates it in place.
func NewTable(meta *catalog.Table) *Table {
	return &Table{Meta: meta, ts: initialTS, indexes: map[string]*Index{}}
}

// Visible reports whether row version i is visible in this view.
func (t *Table) Visible(i int) bool {
	if i >= len(t.begin) {
		// Rows appended by the bulk-load path before MVCC metadata existed
		// (or a view sliced ahead of its metadata) are always visible.
		return true
	}
	if t.begin[i] > t.ts {
		return false
	}
	end := atomic.LoadUint64(&t.ends[i])
	return end == 0 || end > t.ts
}

// NumVisible counts the rows visible in this view.
func (t *Table) NumVisible() int {
	n := 0
	for i := range t.Rows {
		if t.Visible(i) {
			n++
		}
	}
	return n
}

// VisibleRows returns the rows visible in this view, in heap order.
func (t *Table) VisibleRows() []Row {
	out := make([]Row, 0, len(t.Rows))
	for i, r := range t.Rows {
		if t.Visible(i) {
			out = append(out, r)
		}
	}
	return out
}

// FilterVisible drops invisible row numbers from an index match. It
// returns the input slice unchanged when every candidate is visible (the
// common case for append-mostly tables), so index probes stay allocation
// free until a delete actually lands in the range.
func (t *Table) FilterVisible(match []int32) []int32 {
	for i, rid := range match {
		if !t.Visible(int(rid)) {
			out := make([]int32, i, len(match))
			copy(out, match[:i])
			for _, r := range match[i+1:] {
				if t.Visible(int(r)) {
					out = append(out, r)
				}
			}
			return out
		}
	}
	return match
}

// validateRow checks arity and column kinds for a row headed into t.
func validateRow(meta *catalog.Table, vals []datum.Datum) error {
	if len(vals) != len(meta.Cols) {
		return fmt.Errorf("storage: %s: got %d values, want %d", meta.Name, len(vals), len(meta.Cols))
	}
	for i, v := range vals {
		if v.IsNull() {
			if !meta.Cols[i].Nullable {
				return fmt.Errorf("storage: %s.%s: NULL in non-nullable column", meta.Name, meta.Cols[i].Name)
			}
			continue
		}
		want := meta.Cols[i].Type
		got := v.Kind()
		// Ints are acceptable in float columns.
		if got != want && !(want == datum.KFloat && got == datum.KInt) {
			return fmt.Errorf("storage: %s.%s: kind %s, want %s", meta.Name, meta.Cols[i].Name, got, want)
		}
	}
	return nil
}

// coerceRow copies vals, widening ints stored into float columns so that
// the heap holds exactly the declared column kinds.
func coerceRow(meta *catalog.Table, vals []datum.Datum) Row {
	out := make(Row, len(vals))
	for i, v := range vals {
		if !v.IsNull() && meta.Cols[i].Type == datum.KFloat && v.Kind() == datum.KInt {
			v = datum.NewFloat(v.Float())
		}
		out[i] = v
	}
	return out
}

// Append adds a row after validating its arity and column kinds. This is
// the non-transactional bulk-load path: the row is stamped with the view's
// own timestamp (immediately visible) and any already-built indexes are
// maintained incrementally, so loading after BuildIndexes can no longer
// leave them silently stale. Not safe concurrently with serving.
func (t *Table) Append(vals ...datum.Datum) error {
	if err := validateRow(t.Meta, vals); err != nil {
		return err
	}
	slot := int32(len(t.Rows))
	t.Rows = append(t.Rows, Row(vals))
	t.begin = append(t.begin, t.ts)
	t.ends = append(t.ends, 0)
	for _, ix := range t.indexes {
		ix.insertInPlace(t.Rows, slot)
	}
	return nil
}

// MustAppend is Append but panics on error; for test and generator code.
func (t *Table) MustAppend(vals ...datum.Datum) {
	if err := t.Append(vals...); err != nil {
		panic(err)
	}
}

// BuildIndexes (re)builds every index declared in the table metadata.
func (t *Table) BuildIndexes() {
	t.indexes = map[string]*Index{}
	for _, im := range t.Meta.Indexes {
		t.indexes[im.Name] = buildIndex(t.Rows, im)
	}
}

// Index returns the built index with the given name, or nil.
func (t *Table) Index(name string) *Index {
	return t.indexes[name]
}

// Index is an ordered secondary index: row numbers sorted by key columns.
// An index covers every row version of its table view, dead ones included;
// probes filter by visibility. Indexes are immutable once published with a
// version (commits extend them copy-on-write); only the load-time path
// inserts in place.
type Index struct {
	Meta  *catalog.Index
	rows  []Row
	order []int32 // row numbers in key order; NULL keys sort first
}

// rowLess orders two row numbers by the index key columns (NULLs first).
func rowLess(rows []Row, meta *catalog.Index, a, b int32) bool {
	ra, rb := rows[a], rows[b]
	for _, c := range meta.Cols {
		va, vb := ra[c], rb[c]
		if va.IsNull() || vb.IsNull() {
			if va.IsNull() && vb.IsNull() {
				continue
			}
			return va.IsNull() // NULLs first
		}
		cmp := datum.MustCompare(va, vb)
		if cmp != 0 {
			return cmp < 0
		}
	}
	return false
}

func buildIndex(rows []Row, meta *catalog.Index) *Index {
	idx := &Index{Meta: meta, rows: rows, order: make([]int32, len(rows))}
	for i := range idx.order {
		idx.order[i] = int32(i)
	}
	sort.SliceStable(idx.order, func(a, b int) bool {
		return rowLess(rows, meta, idx.order[a], idx.order[b])
	})
	return idx
}

// insertInPlace inserts one new row number into key order (load-time path;
// not safe concurrently with readers).
func (ix *Index) insertInPlace(rows []Row, slot int32) {
	ix.rows = rows
	pos := sort.Search(len(ix.order), func(i int) bool {
		// Upper bound: new rows land after existing equal keys, matching
		// buildIndex's stable order.
		return rowLess(rows, ix.Meta, slot, ix.order[i])
	})
	ix.order = append(ix.order, 0)
	copy(ix.order[pos+1:], ix.order[pos:])
	ix.order[pos] = slot
}

// extended returns a new index over rows that additionally covers the
// given new row numbers (which must be sorted ascending by heap position).
// The receiver is not modified.
func (ix *Index) extended(rows []Row, newSlots []int32) *Index {
	if len(newSlots) == 0 {
		return &Index{Meta: ix.Meta, rows: rows, order: ix.order}
	}
	add := append([]int32(nil), newSlots...)
	sort.SliceStable(add, func(a, b int) bool {
		return rowLess(rows, ix.Meta, add[a], add[b])
	})
	merged := make([]int32, 0, len(ix.order)+len(add))
	i, j := 0, 0
	for i < len(ix.order) && j < len(add) {
		// Stable merge: existing entries come first among equal keys.
		if rowLess(rows, ix.Meta, add[j], ix.order[i]) {
			merged = append(merged, add[j])
			j++
		} else {
			merged = append(merged, ix.order[i])
			i++
		}
	}
	merged = append(merged, ix.order[i:]...)
	merged = append(merged, add[j:]...)
	return &Index{Meta: ix.Meta, rows: rows, order: merged}
}

// keyCompare compares a row's leading index columns against key. A NULL in
// the row sorts before any non-null key value.
func (ix *Index) keyCompare(rowNum int32, key []datum.Datum) int {
	row := ix.rows[rowNum]
	for i, k := range key {
		v := row[ix.Meta.Cols[i]]
		if v.IsNull() {
			return -1
		}
		cmp := datum.MustCompare(v, k)
		if cmp != 0 {
			return cmp
		}
	}
	return 0
}

// EqualRange returns the row numbers whose leading index columns equal key.
// A NULL in the key matches nothing (SQL equality semantics). The result
// may include row versions invisible to a snapshot; scans filter with
// Table.Visible.
func (ix *Index) EqualRange(key []datum.Datum) []int32 {
	for _, k := range key {
		if k.IsNull() {
			return nil
		}
	}
	lo := sort.Search(len(ix.order), func(i int) bool {
		return ix.keyCompare(ix.order[i], key) >= 0
	})
	hi := sort.Search(len(ix.order), func(i int) bool {
		return ix.keyCompare(ix.order[i], key) > 0
	})
	return ix.order[lo:hi]
}

// Range returns the row numbers whose first index column lies in the
// interval described by lo/hi (either may be null Datum + ok=false for
// unbounded). NULL column values never match. As with EqualRange, the
// result is pre-visibility.
func (ix *Index) Range(lo datum.Datum, loInc bool, hasLo bool, hi datum.Datum, hiInc bool, hasHi bool) []int32 {
	col := ix.Meta.Cols[0]
	start := 0
	if hasLo {
		start = sort.Search(len(ix.order), func(i int) bool {
			v := ix.rows[ix.order[i]][col]
			if v.IsNull() {
				return false
			}
			cmp := datum.MustCompare(v, lo)
			if loInc {
				return cmp >= 0
			}
			return cmp > 0
		})
	} else {
		// Skip leading NULLs.
		start = sort.Search(len(ix.order), func(i int) bool {
			return !ix.rows[ix.order[i]][col].IsNull()
		})
	}
	end := len(ix.order)
	if hasHi {
		end = sort.Search(len(ix.order), func(i int) bool {
			v := ix.rows[ix.order[i]][col]
			if v.IsNull() {
				return false
			}
			cmp := datum.MustCompare(v, hi)
			if hiInc {
				return cmp > 0
			}
			return cmp >= 0
		})
	}
	if start > end {
		return nil
	}
	return ix.order[start:end]
}

// DB is a database instance: a catalog plus a storage engine holding the
// tables. The zero-config constructor uses the in-memory engine; Open
// builds one over the disk-backed append-log engine.
type DB struct {
	Catalog *catalog.Catalog
	eng     Engine
}

// NewDB creates an empty database over the given catalog, backed by the
// in-memory engine.
func NewDB(cat *catalog.Catalog) *DB {
	return &DB{Catalog: cat, eng: NewMemEngine(cat)}
}

// NewDBWithEngine creates a database over an already-open engine.
func NewDBWithEngine(cat *catalog.Catalog, eng Engine) *DB {
	return &DB{Catalog: cat, eng: eng}
}

// Engine exposes the underlying storage engine.
func (db *DB) Engine() Engine { return db.eng }

// Metrics wires an observability registry into the engine's storage.mvcc.*
// (and, for the disk engine, storage.wal.*) counters.
func (db *DB) Metrics(reg metricsRegistry) { db.eng.UseMetrics(reg) }

// CreateTable registers table metadata in the catalog and creates empty
// storage for it.
func (db *DB) CreateTable(meta *catalog.Table) (*Table, error) {
	return db.eng.CreateTable(meta)
}

// Table returns the current head version of the table by (case-insensitive)
// name, or nil. The head is a consistent single-table view; multi-table
// statements should read through a Snapshot instead.
func (db *DB) Table(name string) *Table {
	meta := db.Catalog.Table(name)
	if meta == nil {
		return nil
	}
	return db.eng.OpenTable(meta.Name)
}

// Snapshot acquires a consistent multi-table read view at the engine's
// current commit timestamp. Snapshots never block writers and writers
// never block snapshots.
func (db *DB) Snapshot() *Snapshot { return db.eng.Snapshot() }

// NewBatch starts a write batch reading from the current commit timestamp.
func (db *DB) NewBatch() *WriteBatch { return db.eng.NewBatch() }

// Commit atomically applies a write batch; see Engine.Commit.
func (db *DB) Commit(b *WriteBatch) (uint64, error) { return db.eng.Commit(b) }

// Close releases the engine (flushes and closes the WAL for the disk
// engine).
func (db *DB) Close() error { return db.eng.Close() }

// Finalize builds all indexes and collects statistics for every table.
// Call after loading data. It counts as one statistics change.
func (db *DB) Finalize() {
	for _, name := range db.eng.TableNames() {
		t := db.eng.OpenTable(name)
		t.BuildIndexes()
		t.Meta.SetStats(Analyze(t))
	}
	db.Catalog.BumpVersion()
}

// AnalyzeTable recollects optimizer statistics for one table (ANALYZE), or
// for every table when name is "". Statistics are computed over a snapshot
// of the visible rows and published atomically, and the catalog's
// statistics version is bumped so shared plan caches invalidate plans
// chosen under the old statistics. ANALYZE holds no lock that readers or
// writers can block on; indexes are already maintained incrementally by
// the write path, so none are rebuilt here.
func (db *DB) AnalyzeTable(name string) error {
	if name == "" {
		for _, n := range db.eng.TableNames() {
			db.analyzeOne(n)
		}
		db.Catalog.BumpVersion()
		return nil
	}
	t := db.Table(name)
	if t == nil {
		return fmt.Errorf("storage: table %s does not exist", name)
	}
	db.analyzeOne(t.Meta.Name)
	db.Catalog.BumpVersion()
	return nil
}

// analyzeOne refreshes one table's statistics (and, for load-time tables
// that were appended to before any BuildIndexes, builds the declared
// indexes so the legacy append-then-analyze flow still works).
func (db *DB) analyzeOne(name string) {
	t := db.eng.OpenTable(name)
	if t == nil {
		return
	}
	if len(t.indexes) < len(t.Meta.Indexes) {
		t.BuildIndexes()
	}
	t.Meta.SetStats(Analyze(t))
}

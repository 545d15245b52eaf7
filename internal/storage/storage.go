// Package storage implements the transactional storage subsystem: heap
// tables with multi-version rows (snapshot-isolation MVCC), ordered
// secondary indexes with binary-search range scans maintained incrementally
// by the write path, the ANALYZE pass that collects the optimizer
// statistics defined in package catalog, and optional durability: a DB
// opened over a data directory carries a segmented WAL (fsync-on-commit,
// crash-recovery replay); one built by NewDB lives in memory only.
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
// heap. Scans must skip rows for which Visible reports false. Rows enter
// only through a committed WriteBatch, so begin, ends and Rows always have
// the same length.
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

// Visible reports whether row version i is visible in this view.
func (t *Table) Visible(i int) bool {
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

// buildIndexes builds every index declared in the table metadata over the
// whole heap. Load-time only (Finalize, the end of WAL replay): it writes
// the head in place, before serving starts.
func (t *Table) buildIndexes() {
	all := make([]int32, len(t.Rows))
	for i := range all {
		all[i] = int32(i)
	}
	t.indexes = make(map[string]*Index, len(t.Meta.Indexes))
	for _, im := range t.Meta.Indexes {
		t.indexes[im.Name] = (&Index{Meta: im}).extended(t.Rows, all)
	}
}

// Index returns the built index with the given name, or nil.
func (t *Table) Index(name string) *Index {
	return t.indexes[name]
}

// Index is an ordered secondary index: row numbers sorted by key columns.
// An index covers every row version of its table view, dead ones included;
// probes filter by visibility. Indexes are immutable once published with a
// version; commits extend them copy-on-write.
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

// Table returns the current head version of the table by (case-insensitive)
// name, or nil. The head is a consistent single-table view; multi-table
// statements should read through a Snapshot instead.
func (db *DB) Table(name string) *Table {
	meta := db.Catalog.Table(name)
	if meta == nil {
		return nil
	}
	return db.openTable(meta.Name)
}

// Finalize builds all indexes and collects statistics for every table.
// Call once after the load commits, before serving. It counts as one
// statistics change.
func (db *DB) Finalize() {
	for _, name := range db.tableNames() {
		t := db.openTable(name)
		t.buildIndexes()
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
		for _, n := range db.tableNames() {
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

// analyzeOne refreshes one table's statistics.
func (db *DB) analyzeOne(name string) {
	if t := db.openTable(name); t != nil {
		t.Meta.SetStats(Analyze(t))
	}
}

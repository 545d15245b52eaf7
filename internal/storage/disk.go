package storage

import (
	"os"

	"repro/internal/catalog"
)

// OpenDiskEngine opens (or initializes) a data directory over the given
// catalog and returns a durable database: the in-memory MVCC store with a
// segmented WAL attached. Every CREATE TABLE and every commit is appended
// and fsynced before it is applied or acknowledged. Opening replays the
// log (truncating a torn tail left by a crash), reproducing exactly the
// committed-transaction state, then builds indexes and statistics with
// Finalize, so the database is immediately servable. The catalog must not
// already contain tables that the WAL also defines — the intended use is
// a fresh catalog that the replay populates.
func OpenDiskEngine(dir string, cat *catalog.Catalog) (*DB, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	db := NewDB(cat)
	w, err := replayWAL(dir, db)
	if err != nil {
		return nil, err
	}
	db.wal = w
	if len(cat.Tables()) > 0 {
		db.Finalize()
	}
	return db, nil
}

// NewDBWithEngine returns db unchanged. It is kept only for
// benchmark/replay.go, which wraps OpenDiskEngine's result with it.
func NewDBWithEngine(cat *catalog.Catalog, db *DB) *DB { return db }

// Metrics wires an observability registry into the storage.mvcc.* and,
// for a durable database, storage.wal.* counters. The WAL replay done at
// open is counted into storage.wal.replayed_commits and
// storage.wal.torn_tails here. Safe to call with nil.
func (db *DB) Metrics(reg metricsRegistry) {
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	db.metrics = newStoreMetrics(reg)
	if db.wal != nil {
		db.wal.metrics = newWalMetrics(reg)
		db.wal.metrics.replayed.Add(db.wal.replayed)
		db.wal.metrics.torn.Add(db.wal.torn)
	}
}

// Close flushes and closes the WAL of a durable database; further commits
// and CREATE TABLEs fail with ErrClosed. It is a no-op in memory.
func (db *DB) Close() error {
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	if db.wal == nil {
		return nil
	}
	return db.wal.close()
}

// Mirror copies every table of src into dst: schemas are cloned (fresh
// metadata objects, since catalog ownership is per-database), all currently
// visible rows are inserted through one write batch per table, and dst is
// finalized (indexes + statistics). It starts a second database from the
// visible state of an existing one.
func Mirror(src *DB, dst *DB) error {
	for _, meta := range src.Catalog.Tables() {
		clone := cloneMeta(meta)
		if _, err := dst.CreateTable(clone); err != nil {
			return err
		}
		t := src.Table(meta.Name)
		if t == nil {
			continue
		}
		b := dst.NewBatch()
		for _, r := range t.VisibleRows() {
			if err := b.Insert(clone.Name, r); err != nil {
				return err
			}
		}
		if _, err := dst.Commit(b); err != nil {
			return err
		}
	}
	dst.Finalize()
	return nil
}

// cloneMeta deep-copies table metadata without its statistics, for
// registering the same schema in a second catalog.
func cloneMeta(meta *catalog.Table) *catalog.Table {
	out := &catalog.Table{
		Name:       meta.Name,
		Cols:       append([]catalog.Column(nil), meta.Cols...),
		PrimaryKey: append([]int(nil), meta.PrimaryKey...),
	}
	for _, u := range meta.UniqueKeys {
		out.UniqueKeys = append(out.UniqueKeys, append([]int(nil), u...))
	}
	for _, fk := range meta.ForeignKeys {
		out.ForeignKeys = append(out.ForeignKeys, catalog.ForeignKey{
			Cols:     append([]int(nil), fk.Cols...),
			RefTable: fk.RefTable,
			RefCols:  append([]int(nil), fk.RefCols...),
		})
	}
	for _, ix := range meta.Indexes {
		out.Indexes = append(out.Indexes, &catalog.Index{
			Name:   ix.Name,
			Cols:   append([]int(nil), ix.Cols...),
			Unique: ix.Unique,
		})
	}
	return out
}

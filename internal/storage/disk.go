package storage

import (
	"fmt"
	"os"
	"sync"

	"repro/internal/catalog"
)

// DiskEngine is the disk-backed append-log storage engine: the same MVCC
// store as MemEngine, made durable by a segmented WAL. Every CREATE TABLE
// and every commit is appended and fsynced before it is applied or
// acknowledged; opening a data directory replays the log (truncating a
// torn tail left by a crash) and rebuilds the in-memory heaps, indexes,
// and statistics, reproducing exactly the committed-transaction state.
type DiskEngine struct {
	s   *store
	dir string

	// walMu guards the writer for schema records, which are written
	// outside the store's commit lock. Commit records are written under
	// commitMu via the store's log hook; the two never interleave because
	// CreateTable is not concurrent with serving, but the lock keeps the
	// writer safe regardless.
	walMu sync.Mutex
	w     *walWriter
}

var (
	_ Engine = (*MemEngine)(nil)
	_ Engine = (*DiskEngine)(nil)
)

// OpenDiskEngine opens (or initializes) a data directory over the given
// catalog. The catalog must not already contain tables that the WAL also
// defines — the intended use is a fresh catalog that the replay populates.
// After replay, indexes are rebuilt in memory and statistics recollected,
// so the database is immediately servable.
func OpenDiskEngine(dir string, cat *catalog.Catalog) (*DiskEngine, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := newStore(cat)
	var m walMetrics
	lastSeg, err := replayWAL(dir, s, m)
	if err != nil {
		return nil, err
	}
	w, err := openWalWriter(dir, lastSeg)
	if err != nil {
		return nil, err
	}
	e := &DiskEngine{s: s, dir: dir, w: w}
	s.logFn = e.logCommit
	// Rebuild what the log does not store: indexes and statistics.
	for _, name := range s.tableNames() {
		t := s.openTable(name)
		t.buildIndexes()
		t.Meta.SetStats(Analyze(t))
	}
	if len(s.tableNames()) > 0 {
		cat.BumpVersion()
	}
	return e, nil
}

// logCommit is the store's durability hook: append + fsync the commit
// record before the commit is applied.
func (e *DiskEngine) logCommit(commitTS uint64, b *WriteBatch) error {
	e.walMu.Lock()
	defer e.walMu.Unlock()
	return e.w.append(encodeCommit(commitTS, b.ops))
}

// CreateTable logs the schema durably, then registers the table.
func (e *DiskEngine) CreateTable(meta *catalog.Table) (*Table, error) {
	if e.s.cat.Table(meta.Name) != nil {
		return nil, fmt.Errorf("catalog: table %s already exists", meta.Name)
	}
	e.walMu.Lock()
	err := e.w.append(encodeSchema(meta))
	e.walMu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("storage: log schema: %w", err)
	}
	return e.s.createTable(meta)
}

func (e *DiskEngine) OpenTable(name string) *Table         { return e.s.openTable(name) }
func (e *DiskEngine) TableNames() []string                 { return e.s.tableNames() }
func (e *DiskEngine) Snapshot() *Snapshot                  { return e.s.snapshot() }
func (e *DiskEngine) NewBatch() *WriteBatch                { return e.s.newBatch() }
func (e *DiskEngine) Commit(b *WriteBatch) (uint64, error) { return e.s.commit(b) }

func (e *DiskEngine) UseMetrics(reg metricsRegistry) {
	e.s.metrics = newStoreMetrics(reg)
	e.walMu.Lock()
	e.w.metrics = newWalMetrics(reg)
	e.walMu.Unlock()
}

// Close flushes and closes the WAL. Further commits fail.
func (e *DiskEngine) Close() error {
	e.walMu.Lock()
	defer e.walMu.Unlock()
	return e.w.close()
}

// Dir returns the engine's data directory.
func (e *DiskEngine) Dir() string { return e.dir }

// Mirror copies every table of src into dst: schemas are cloned (fresh
// metadata objects, since catalog ownership is per-engine), all currently
// visible rows are inserted through one write batch per table, and dst is
// finalized (indexes + statistics). It starts a second engine from the
// visible state of an existing database.
func Mirror(src *DB, dst *DB) error {
	for _, meta := range src.Catalog.Tables() {
		clone := CloneMeta(meta)
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

// CloneMeta deep-copies table metadata without its statistics, for
// registering the same schema in a second catalog.
func CloneMeta(meta *catalog.Table) *catalog.Table {
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

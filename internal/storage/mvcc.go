package storage

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/catalog"
	"repro/internal/datum"
	"repro/internal/obsv"
)

// initialTS is the oracle's starting point: the horizon of a freshly
// created, empty table. The first commit gets initialTS+1.
const initialTS uint64 = 1

// ErrWriteConflict is returned by Commit when another transaction deleted
// or replaced a row this batch targets after the batch's reads (snapshot
// isolation with first-committer-wins write-write conflicts). The caller
// may re-read under a fresh snapshot and retry.
var ErrWriteConflict = errors.New("storage: write-write conflict")

// metricsRegistry is the observability sink the engines publish into.
type metricsRegistry = *obsv.Registry

// storeMetrics are the storage.mvcc.* counters. All fields may be nil
// (obsv counters are nil-safe), so an engine without a registry pays only
// the nil check.
type storeMetrics struct {
	commits      *obsv.Counter // storage.mvcc.commits
	conflicts    *obsv.Counter // storage.mvcc.conflicts
	snapshots    *obsv.Counter // storage.mvcc.snapshots
	rowsInserted *obsv.Counter // storage.mvcc.rows_inserted
	rowsDeleted  *obsv.Counter // storage.mvcc.rows_deleted
}

func newStoreMetrics(reg *obsv.Registry) storeMetrics {
	if reg == nil {
		return storeMetrics{}
	}
	return storeMetrics{
		commits:      reg.Counter("storage.mvcc.commits"),
		conflicts:    reg.Counter("storage.mvcc.conflicts"),
		snapshots:    reg.Counter("storage.mvcc.snapshots"),
		rowsInserted: reg.Counter("storage.mvcc.rows_inserted"),
		rowsDeleted:  reg.Counter("storage.mvcc.rows_deleted"),
	}
}

// mvTable is one table's published version chain: an atomically swapped
// head pointer to the newest immutable *Table view.
type mvTable struct {
	head atomic.Pointer[Table]
}

// store is the shared MVCC core both engines are built on: the table heads,
// the commit-timestamp oracle, and the commit protocol. The disk engine
// adds a WAL by installing a log hook that runs inside the commit critical
// section, after validation and before anything is applied.
type store struct {
	cat *catalog.Catalog

	mu     sync.RWMutex // guards the tables map itself (CreateTable vs lookup)
	tables map[string]*mvTable

	// committed is the newest commit timestamp whose effects are fully
	// published. Snapshots read it; commits publish all table heads first
	// and then advance it, so a snapshot at ts T always observes every
	// commit <= T in full.
	committed atomic.Uint64

	// commitMu serializes commits. Writers queue here; readers never touch
	// it. Serializing commits keeps the oracle trivially monotonic and
	// makes "publish heads, then advance committed" a correct protocol
	// without per-table commit ordering machinery.
	commitMu sync.Mutex

	// logFn, when set, durably records a validated batch before it is
	// applied (the disk engine's WAL append + fsync). An error aborts the
	// commit with nothing applied.
	logFn func(commitTS uint64, b *WriteBatch) error

	metrics storeMetrics
}

func newStore(cat *catalog.Catalog) *store {
	s := &store{cat: cat, tables: map[string]*mvTable{}}
	s.committed.Store(initialTS)
	return s
}

func (s *store) createTable(meta *catalog.Table) (*Table, error) {
	if err := s.cat.AddTable(meta); err != nil {
		return nil, err
	}
	mt := &mvTable{}
	mt.head.Store(&Table{Meta: meta, ts: initialTS, indexes: map[string]*Index{}})
	s.mu.Lock()
	s.tables[meta.Name] = mt
	s.mu.Unlock()
	return mt.head.Load(), nil
}

func (s *store) table(name string) *mvTable {
	s.mu.RLock()
	mt := s.tables[name]
	s.mu.RUnlock()
	return mt
}

func (s *store) openTable(name string) *Table {
	mt := s.table(name)
	if mt == nil {
		return nil
	}
	return mt.head.Load()
}

func (s *store) tableNames() []string {
	s.mu.RLock()
	names := make([]string, 0, len(s.tables))
	for n := range s.tables {
		names = append(names, n)
	}
	s.mu.RUnlock()
	sort.Strings(names)
	return names
}

// Snapshot is a consistent multi-table read view: the commit timestamp at
// acquisition plus lazily resolved per-table views at that timestamp.
// Snapshots never block writers; a statement executes entirely against one
// snapshot and observes byte-identical results no matter how many commits
// land concurrently. Safe for concurrent use.
type Snapshot struct {
	ts    uint64
	store *store

	mu    sync.Mutex
	views map[string]*Table
}

func (s *store) snapshot() *Snapshot {
	s.metrics.snapshots.Inc()
	return &Snapshot{ts: s.committed.Load(), store: s, views: map[string]*Table{}}
}

// TS returns the snapshot's read timestamp.
func (sn *Snapshot) TS() uint64 { return sn.ts }

// Table returns this snapshot's view of the named table, or nil. The view
// is the published head when the head is no newer than the snapshot (the
// common case), else a re-stamped copy whose visibility horizon is the
// snapshot's timestamp.
func (sn *Snapshot) Table(name string) *Table {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	if t, ok := sn.views[name]; ok {
		return t
	}
	head := sn.store.openTable(name)
	if head == nil {
		return nil
	}
	t := head
	if head.ts > sn.ts {
		// The head includes commits newer than this snapshot. Rows share
		// storage with the head; only the visibility horizon differs.
		view := *head
		view.ts = sn.ts
		// Re-view the indexes too so probes resolve against the same heap
		// (they already do — indexes are immutable — but keep the struct
		// self-consistent for direct users).
		t = &view
	}
	sn.views[name] = t
	return t
}

// op is one mutation in a WriteBatch.
type op struct {
	table string
	// insert when row != nil; delete of rid otherwise.
	row Row
	rid int32
}

// WriteBatch accumulates INSERT/UPDATE/DELETE mutations for one atomic
// commit. Target rows for updates and deletes are identified by rowid as
// produced by the scan paths (the heap version number). A batch is built
// by a single goroutine and committed once.
type WriteBatch struct {
	store *store
	ops   []op
	nIns  int
	nDel  int
}

func (s *store) newBatch() *WriteBatch { return &WriteBatch{store: s} }

// Insert queues a row append after validating arity and column kinds.
func (b *WriteBatch) Insert(table string, vals []datum.Datum) error {
	meta := b.store.cat.Table(table)
	if meta == nil {
		return fmt.Errorf("storage: table %s does not exist", table)
	}
	if err := validateRow(meta, vals); err != nil {
		return err
	}
	b.ops = append(b.ops, op{table: meta.Name, row: coerceRow(meta, vals)})
	b.nIns++
	return nil
}

// Delete queues the removal of row version rid.
func (b *WriteBatch) Delete(table string, rid int32) error {
	meta := b.store.cat.Table(table)
	if meta == nil {
		return fmt.Errorf("storage: table %s does not exist", table)
	}
	b.ops = append(b.ops, op{table: meta.Name, row: nil, rid: rid})
	b.nDel++
	return nil
}

// Update queues the replacement of row version rid with a new row: a
// delete of the old version plus an insert of the new one, atomically
// under the same commit timestamp.
func (b *WriteBatch) Update(table string, rid int32, vals []datum.Datum) error {
	if err := b.Delete(table, rid); err != nil {
		return err
	}
	return b.Insert(table, vals)
}

// Inserted and Deleted report the queued op counts (an update counts one
// of each).
func (b *WriteBatch) Inserted() int { return b.nIns }
func (b *WriteBatch) Deleted() int  { return b.nDel }

// Empty reports whether the batch holds no mutations.
func (b *WriteBatch) Empty() bool { return len(b.ops) == 0 }

// commit runs the commit protocol:
//
//  1. pick commitTS = committed+1 (commits are serialized, so this is the
//     monotonic oracle);
//  2. validate write-write conflicts: every targeted row version must
//     still be live (first committer wins);
//  3. durably log the batch (disk engine WAL hook), abort on error;
//  4. apply: stamp deleted versions' end timestamps in place, build new
//     table versions copy-on-write for inserts, extend indexes;
//  5. publish the new heads, then advance committed;
//  6. bump the catalog data version.
//
// Readers are never blocked: they either hold a snapshot < commitTS (and
// the end-timestamp stamps don't change what's visible to them) or acquire
// one >= commitTS after step 5's publishes are complete.
func (s *store) commit(b *WriteBatch) (uint64, error) {
	if b.store != s {
		return 0, errors.New("storage: batch committed against a different store")
	}
	if b.Empty() {
		return s.committed.Load(), nil
	}
	s.commitMu.Lock()
	defer s.commitMu.Unlock()

	commitTS := s.committed.Load() + 1

	// Validate: all delete targets still live.
	for _, o := range b.ops {
		if o.row != nil {
			continue
		}
		head := s.openTable(o.table)
		if head == nil {
			return 0, fmt.Errorf("storage: table %s does not exist", o.table)
		}
		if int(o.rid) < 0 || int(o.rid) >= len(head.Rows) {
			return 0, fmt.Errorf("storage: %s: rowid %d out of range", o.table, o.rid)
		}
		if atomic.LoadUint64(&head.ends[o.rid]) != 0 {
			s.metrics.conflicts.Inc()
			return 0, fmt.Errorf("%w: %s rowid %d", ErrWriteConflict, o.table, o.rid)
		}
	}

	if s.logFn != nil {
		if err := s.logFn(commitTS, b); err != nil {
			return 0, fmt.Errorf("storage: log commit: %w", err)
		}
	}

	s.applyOps(commitTS, b.ops)

	s.committed.Store(commitTS)
	s.metrics.commits.Inc()
	s.metrics.rowsInserted.Add(int64(b.nIns))
	s.metrics.rowsDeleted.Add(int64(b.nDel))
	s.cat.BumpDataVersion()
	return commitTS, nil
}

// applyOps applies validated ops at commitTS and publishes the new heads.
// Called with commitMu held (or single-threaded during recovery replay).
func (s *store) applyOps(commitTS uint64, ops []op) {
	// Group per table, preserving op order.
	type tableOps struct {
		inserts []Row
		deletes []int32
	}
	grouped := map[string]*tableOps{}
	var order []string
	for _, o := range ops {
		g := grouped[o.table]
		if g == nil {
			g = &tableOps{}
			grouped[o.table] = g
			order = append(order, o.table)
		}
		if o.row != nil {
			g.inserts = append(g.inserts, o.row)
		} else {
			g.deletes = append(g.deletes, o.rid)
		}
	}
	for _, name := range order {
		g := grouped[name]
		mt := s.table(name)
		head := mt.head.Load()

		next := &Table{
			Meta:    head.Meta,
			Rows:    head.Rows,
			begin:   head.begin,
			ends:    head.ends,
			ts:      commitTS,
			indexes: head.indexes,
		}
		var newSlots []int32
		if len(g.inserts) > 0 {
			newSlots = make([]int32, 0, len(g.inserts))
			for _, r := range g.inserts {
				newSlots = append(newSlots, int32(len(next.Rows)))
				// Appends may grow in place past the old head's len; that
				// is safe because no reader ever indexes past the len of
				// the slice header it holds.
				next.Rows = append(next.Rows, r)
				next.begin = append(next.begin, commitTS)
				next.ends = append(next.ends, 0)
			}
			if len(head.indexes) > 0 {
				next.indexes = make(map[string]*Index, len(head.indexes))
				for n, ix := range head.indexes {
					next.indexes[n] = ix.extended(next.Rows, newSlots)
				}
			}
		}
		// Stamp deletes in place. The ends array is shared with older
		// views; stamping end=commitTS is invisible to snapshots < commitTS
		// (end > their ts) and exactly right for newer ones.
		for _, rid := range g.deletes {
			atomic.StoreUint64(&next.ends[rid], commitTS)
		}
		mt.head.Store(next)
	}
}

package exec

import (
	"fmt"
	"sort"

	"repro/internal/datum"
	"repro/internal/optimizer"
	"repro/internal/qtree"
	"repro/internal/storage"
)

// seqScanIter scans a heap table.
type seqScanIter struct {
	e    *env
	n    *optimizer.SeqScan
	tbl  *storage.Table
	pos  int
	self Ctx
}

func newSeqScan(e *env, n *optimizer.SeqScan) *seqScanIter {
	return &seqScanIter{e: e, n: n, tbl: e.table(n.Table.Name), self: schemaCtx(n.Columns())}
}

func (it *seqScanIter) Open(outer *Ctx) error {
	if it.tbl == nil {
		return fmt.Errorf("exec: table %s has no storage", it.n.Table.Name)
	}
	it.pos = 0
	it.self.parent = outer
	return nil
}

func (it *seqScanIter) Next() (Row, error) {
	for it.pos < len(it.tbl.Rows) {
		if err := it.e.checkCancel(); err != nil {
			return nil, err
		}
		if !it.tbl.Visible(it.pos) {
			it.pos++
			continue
		}
		src := it.tbl.Rows[it.pos]
		rowid := it.pos
		it.pos++
		out := make(Row, len(src)+1)
		copy(out, src)
		out[len(src)] = datum.NewInt(int64(rowid))
		it.self.row = out
		ok, err := it.e.evalPreds(it.n.Filter, &it.self)
		if err != nil {
			return nil, err
		}
		if ok {
			return out, nil
		}
	}
	return nil, nil
}

func (it *seqScanIter) Close() error { return nil }

// indexScanIter probes or range-scans an index.
type indexScanIter struct {
	e     *env
	n     *optimizer.IndexScan
	tbl   *storage.Table
	match []int32
	pos   int
	self  Ctx
}

func newIndexScan(e *env, n *optimizer.IndexScan) (*indexScanIter, error) {
	tbl := e.table(n.Table.Name)
	if tbl == nil {
		return nil, fmt.Errorf("exec: table %s has no storage", n.Table.Name)
	}
	return &indexScanIter{e: e, n: n, tbl: tbl, self: schemaCtx(n.Columns())}, nil
}

func (it *indexScanIter) Open(outer *Ctx) error {
	it.pos = 0
	it.self.parent = outer
	match, err := indexMatches(it.e, it.n, it.tbl, outer)
	if err != nil {
		return err
	}
	it.match = match
	return nil
}

// indexMatches evaluates the probe/range bounds against the outer context
// and returns the matching rowids, filtered to the versions visible in the
// scan's table view; shared by the row and batch index scans. A null bound
// never matches anything.
func indexMatches(e *env, n *optimizer.IndexScan, tbl *storage.Table, outer *Ctx) ([]int32, error) {
	idx := tbl.Index(n.Index.Name)
	if idx == nil {
		return nil, fmt.Errorf("exec: index %s not built", n.Index.Name)
	}
	if len(n.EqKeys) > 0 {
		key := make([]datum.Datum, len(n.EqKeys))
		for i, ke := range n.EqKeys {
			d, err := e.evalExpr(ke, outer)
			if err != nil {
				return nil, err
			}
			key[i] = d
		}
		return tbl.FilterVisible(idx.EqualRange(key)), nil
	}
	var lo, hi datum.Datum
	hasLo, hasHi := false, false
	if n.Lo != nil {
		d, err := e.evalExpr(n.Lo, outer)
		if err != nil {
			return nil, err
		}
		if d.IsNull() {
			return nil, nil
		}
		lo, hasLo = d, true
	}
	if n.Hi != nil {
		d, err := e.evalExpr(n.Hi, outer)
		if err != nil {
			return nil, err
		}
		if d.IsNull() {
			return nil, nil
		}
		hi, hasHi = d, true
	}
	return tbl.FilterVisible(idx.Range(lo, n.LoInc, hasLo, hi, n.HiInc, hasHi)), nil
}

func (it *indexScanIter) Next() (Row, error) {
	for it.pos < len(it.match) {
		if err := it.e.checkCancel(); err != nil {
			return nil, err
		}
		rowid := it.match[it.pos]
		it.pos++
		src := it.tbl.Rows[rowid]
		out := make(Row, len(src)+1)
		copy(out, src)
		out[len(src)] = datum.NewInt(int64(rowid))
		it.self.row = out
		ok, err := it.e.evalPreds(it.n.Filter, &it.self)
		if err != nil {
			return nil, err
		}
		if ok {
			return out, nil
		}
	}
	return nil, nil
}

func (it *indexScanIter) Close() error { return nil }

// filterIter applies predicates (possibly containing subqueries).
type filterIter struct {
	e     *env
	n     *optimizer.Filter
	child iterator
	self  Ctx
}

func newFilter(e *env, n *optimizer.Filter, child iterator) *filterIter {
	return &filterIter{e: e, n: n, child: child, self: schemaCtx(n.Child.Columns())}
}

func (it *filterIter) Open(outer *Ctx) error {
	it.self.parent = outer
	return it.child.Open(outer)
}

func (it *filterIter) Next() (Row, error) {
	for {
		r, err := it.child.Next()
		if err != nil || r == nil {
			return nil, err
		}
		it.self.row = r
		ok, err := it.e.evalPreds(it.n.Preds, &it.self)
		if err != nil {
			return nil, err
		}
		if ok {
			return r, nil
		}
	}
}

func (it *filterIter) Close() error { return it.child.Close() }

// projectIter computes output expressions.
type projectIter struct {
	e     *env
	n     *optimizer.Project
	child iterator
	self  Ctx
}

func newProject(e *env, n *optimizer.Project, child iterator) *projectIter {
	return &projectIter{e: e, n: n, child: child, self: schemaCtx(n.Child.Columns())}
}

func (it *projectIter) Open(outer *Ctx) error {
	it.self.parent = outer
	return it.child.Open(outer)
}

func (it *projectIter) Next() (Row, error) {
	r, err := it.child.Next()
	if err != nil || r == nil {
		return nil, err
	}
	it.self.row = r
	out := make(Row, len(it.n.Exprs))
	for i, ex := range it.n.Exprs {
		d, err := it.e.evalExpr(ex, &it.self)
		if err != nil {
			return nil, err
		}
		out[i] = d
	}
	return out, nil
}

func (it *projectIter) Close() error { return it.child.Close() }

// sortIter materializes and sorts.
type sortIter struct {
	e     *env
	n     *optimizer.Sort
	child iterator
	self  Ctx
	rows  []Row
	pos   int
}

func newSort(e *env, n *optimizer.Sort, child iterator) *sortIter {
	return &sortIter{e: e, n: n, child: child, self: schemaCtx(n.Child.Columns())}
}

func (it *sortIter) Open(outer *Ctx) error {
	if err := it.child.Open(outer); err != nil {
		return err
	}
	it.rows = nil
	it.pos = 0
	self := &it.self
	self.parent = outer
	type keyed struct {
		row  Row
		keys []datum.Datum
	}
	var all []keyed
	for {
		r, err := it.child.Next()
		if err != nil {
			return err
		}
		if r == nil {
			break
		}
		self.row = r
		keys := make([]datum.Datum, len(it.n.Keys))
		for i, k := range it.n.Keys {
			d, err := it.e.evalExpr(k, self)
			if err != nil {
				return err
			}
			keys[i] = d
		}
		all = append(all, keyed{row: r, keys: keys})
	}
	sort.SliceStable(all, func(a, b int) bool {
		for i := range it.n.Keys {
			c := nullsFirstCompare(all[a].keys[i], all[b].keys[i])
			if it.n.Desc[i] {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
	it.rows = make([]Row, len(all))
	for i, k := range all {
		it.rows[i] = k.row
	}
	return nil
}

// nullsFirstCompare orders with NULLs first (ascending).
func nullsFirstCompare(a, b datum.Datum) int {
	if a.IsNull() || b.IsNull() {
		switch {
		case a.IsNull() && b.IsNull():
			return 0
		case a.IsNull():
			return -1
		default:
			return 1
		}
	}
	c, err := datum.Compare(a, b)
	if err != nil {
		return 0
	}
	return c
}

func (it *sortIter) Next() (Row, error) {
	if it.pos >= len(it.rows) {
		return nil, nil
	}
	r := it.rows[it.pos]
	it.pos++
	return r, nil
}

func (it *sortIter) Close() error { return it.child.Close() }

// memBytes approximates the sorted materialization.
func (it *sortIter) memBytes() int64 { return rowsBytes(it.rows) }

// limitIter returns the first n rows.
type limitIter struct {
	child iterator
	n     int64
	seen  int64
}

func (it *limitIter) Open(outer *Ctx) error {
	it.seen = 0
	return it.child.Open(outer)
}

func (it *limitIter) Next() (Row, error) {
	if it.seen >= it.n {
		return nil, nil
	}
	r, err := it.child.Next()
	if err != nil || r == nil {
		return nil, err
	}
	it.seen++
	return r, nil
}

func (it *limitIter) Close() error { return it.child.Close() }

// distinctIter removes duplicates (grouping equality).
type distinctIter struct {
	child iterator
	seen  map[string]bool
	key   []byte
}

func newDistinct(child iterator) *distinctIter { return &distinctIter{child: child} }

func (it *distinctIter) Open(outer *Ctx) error {
	it.seen = map[string]bool{}
	return it.child.Open(outer)
}

func (it *distinctIter) Next() (Row, error) {
	for {
		r, err := it.child.Next()
		if err != nil || r == nil {
			return nil, err
		}
		it.key = appendRowKey(it.key[:0], r)
		if !it.seen[string(it.key)] {
			it.seen[string(it.key)] = true
			return r, nil
		}
	}
}

func (it *distinctIter) Close() error { return it.child.Close() }

// memBytes approximates the duplicate-elimination key set.
func (it *distinctIter) memBytes() int64 {
	var b int64
	for k := range it.seen {
		b += 48 + int64(len(k))
	}
	return b
}

// setOpIter evaluates UNION [ALL] / INTERSECT / MINUS.
type setOpIter struct {
	n    *optimizer.SetNode
	kids []iterator
	out  []Row
	pos  int
}

func newSetOp(n *optimizer.SetNode, kids []iterator) *setOpIter {
	return &setOpIter{n: n, kids: kids}
}

func (it *setOpIter) Open(outer *Ctx) error {
	it.out = nil
	it.pos = 0
	drain := func(k iterator) ([]Row, error) {
		if err := k.Open(outer); err != nil {
			return nil, err
		}
		var rows []Row
		for {
			r, err := k.Next()
			if err != nil {
				return nil, err
			}
			if r == nil {
				return rows, nil
			}
			rows = append(rows, r)
		}
	}
	first, err := drain(it.kids[0])
	if err != nil {
		return err
	}
	// Lookups encode into one reused buffer; only inserts allocate a key.
	var key []byte
	keyOf := func(r Row) []byte {
		key = appendRowKey(key[:0], r)
		return key
	}
	switch it.n.Kind {
	case qtree.SetUnionAll:
		it.out = first
		for _, k := range it.kids[1:] {
			rows, err := drain(k)
			if err != nil {
				return err
			}
			it.out = append(it.out, rows...)
		}
	case qtree.SetUnion:
		seen := map[string]bool{}
		add := func(rows []Row) {
			for _, r := range rows {
				if k := keyOf(r); !seen[string(k)] {
					seen[string(k)] = true
					it.out = append(it.out, r)
				}
			}
		}
		add(first)
		for _, k := range it.kids[1:] {
			rows, err := drain(k)
			if err != nil {
				return err
			}
			add(rows)
		}
	case qtree.SetIntersect:
		// Distinct rows of the first input present in every other input:
		// each candidate counts the inputs it has been seen in.
		type member struct{ hits, lastKid int }
		present := map[string]*member{}
		for _, r := range first {
			if k := keyOf(r); present[string(k)] == nil {
				present[string(k)] = &member{lastKid: -1}
			}
		}
		for ki, kid := range it.kids[1:] {
			rows, err := drain(kid)
			if err != nil {
				return err
			}
			for _, r := range rows {
				if m := present[string(keyOf(r))]; m != nil && m.lastKid != ki {
					m.lastKid = ki
					m.hits++
				}
			}
		}
		// Keep first-input order; a member is emitted once.
		for _, r := range first {
			if m := present[string(keyOf(r))]; m.hits == len(it.kids)-1 {
				m.hits = -1
				it.out = append(it.out, r)
			}
		}
	case qtree.SetMinus:
		// removed holds the keys of every later input, then of each first-
		// input row once it is emitted.
		removed := map[string]bool{}
		for _, k := range it.kids[1:] {
			rows, err := drain(k)
			if err != nil {
				return err
			}
			for _, r := range rows {
				if k := keyOf(r); !removed[string(k)] {
					removed[string(k)] = true
				}
			}
		}
		for _, r := range first {
			if k := keyOf(r); !removed[string(k)] {
				removed[string(k)] = true
				it.out = append(it.out, r)
			}
		}
	}
	return nil
}

func (it *setOpIter) Next() (Row, error) {
	if it.pos >= len(it.out) {
		return nil, nil
	}
	r := it.out[it.pos]
	it.pos++
	return r, nil
}

func (it *setOpIter) Close() error {
	for _, k := range it.kids {
		k.Close()
	}
	return nil
}

// memBytes approximates the materialized set-operation result.
func (it *setOpIter) memBytes() int64 { return rowsBytes(it.out) }

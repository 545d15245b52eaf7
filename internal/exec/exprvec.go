package exec

import (
	"fmt"

	"repro/internal/datum"
	"repro/internal/optimizer"
	"repro/internal/qtree"
)

// This file is the batched expression evaluator: evalExprBatch evaluates
// one scalar expression for every live row of a batch at once, and
// evalPredsBatch refines a batch's selection vector through a conjunct
// list. A column reference resolves once per batch, through the operator's
// run-encoded column index (colIndex), to a column vector; the scalar
// kernels (applyBin, cmp3, likeMatch) are shared with the row engine so the
// two paths agree element-for-element. Expressions the vectorizer does not
// specialize (subqueries, CASE, function calls, IN lists) fall back to the
// row evaluator over a scratch row, preserving semantics exactly at
// row-engine speed for that node only.

// batchCtx is the per-operator state of batched expression evaluation: the
// operator's schema (ColID -> column index), the outer correlation context,
// a scratch row + row context for fallback evaluation, and small pools for
// the intermediate vectors and selection buffers so steady-state evaluation
// allocates nothing per batch. An operator builds its batchCtx once, with
// the iterator, and binds the outer context on every Open: correlated
// subplans re-open once per outer row and keep their pools.
type batchCtx struct {
	e     *env
	outer *Ctx

	rowCtx  Ctx // rowCtx.cols is the schema's column index
	scratch Row

	pool    [][]datum.Datum
	selPool [][]int
	// predSelA/B back evalPredsBatch's selection refinement, alternating so
	// one conjunct can read the old selection while writing the new one.
	// They are never handed to nested expression evaluation (which draws
	// from selPool), so a nested AND/OR cannot clobber a selection the
	// conjunct loop is still reading.
	predSelA []int
	predSelB []int
	predFlip bool
}

func newBatchCtx(e *env, schema []optimizer.ColID) *batchCtx {
	return &batchCtx{e: e, rowCtx: schemaCtx(schema), scratch: make(Row, len(schema))}
}

// bind sets the outer correlation context for the operator's next run.
func (bc *batchCtx) bind(outer *Ctx) {
	bc.outer = outer
	bc.rowCtx.parent = outer
}

// getVec returns a value vector with at least n elements.
func (bc *batchCtx) getVec(n int) []datum.Datum {
	if k := len(bc.pool); k > 0 {
		v := bc.pool[k-1]
		bc.pool = bc.pool[:k-1]
		if cap(v) >= n {
			return v[:n]
		}
	}
	return make([]datum.Datum, n)
}

func (bc *batchCtx) putVec(v []datum.Datum) { bc.pool = append(bc.pool, v) }

// getSel returns an empty selection buffer with capacity n from the pool.
func (bc *batchCtx) getSel(n int) []int {
	if k := len(bc.selPool); k > 0 {
		s := bc.selPool[k-1]
		bc.selPool = bc.selPool[:k-1]
		if cap(s) >= n {
			return s[:0]
		}
	}
	return make([]int, 0, n)
}

func (bc *batchCtx) putSel(s []int) { bc.selPool = append(bc.selPool, s) }

// predSel returns the alternate evalPredsBatch refinement buffer, emptied.
func (bc *batchCtx) predSel(n int) []int {
	bc.predFlip = !bc.predFlip
	buf := &bc.predSelA
	if bc.predFlip {
		buf = &bc.predSelB
	}
	if cap(*buf) < n {
		*buf = make([]int, 0, n)
	}
	return (*buf)[:0]
}

// selCount returns the live-row count of an explicit selection over b.
func selCount(b *Batch, sel []int) int {
	if sel != nil {
		return len(sel)
	}
	return b.N
}

// selAt returns the k-th live physical index of an explicit selection.
func selAt(sel []int, k int) int {
	if sel != nil {
		return sel[k]
	}
	return k
}

// evalExprBatch evaluates x for every row of b selected by sel (nil = all
// physical rows), writing results into dst at the row's physical index.
// Positions outside the selection are left untouched.
func (e *env) evalExprBatch(x qtree.Expr, b *Batch, sel []int, bc *batchCtx, dst []datum.Datum) error {
	n := selCount(b, sel)
	switch v := x.(type) {
	case *qtree.Const:
		for k := 0; k < n; k++ {
			dst[selAt(sel, k)] = v.Val
		}
		return nil

	case *qtree.Param:
		if v.Ord < 0 || v.Ord >= len(e.params) {
			return fmt.Errorf("exec: unbound parameter :%s (slot %d, %d values bound)", v.Name, v.Ord, len(e.params))
		}
		d := e.params[v.Ord]
		for k := 0; k < n; k++ {
			dst[selAt(sel, k)] = d
		}
		return nil

	case *qtree.Col:
		id := optimizer.ColID{From: v.From, Ord: v.Ord}
		if ci, ok := bc.rowCtx.cols.find(id); ok {
			col := b.Cols[ci]
			if sel == nil {
				copy(dst[:b.N], col[:b.N])
			} else {
				for _, r := range sel {
					dst[r] = col[r]
				}
			}
			return nil
		}
		// Correlation: the outer row is fixed for the lifetime of this
		// batch, so the reference is a per-batch constant.
		d, ok := bc.outer.lookup(id)
		if !ok {
			return fmt.Errorf("exec: unresolved column q%d.%s(#%d)", v.From, v.Name, v.Ord)
		}
		for k := 0; k < n; k++ {
			dst[selAt(sel, k)] = d
		}
		return nil

	case *qtree.Bin:
		return e.evalBinBatch(v, b, sel, bc, dst)

	case *qtree.Not:
		if err := e.evalExprBatch(v.E, b, sel, bc, dst); err != nil {
			return err
		}
		for k := 0; k < n; k++ {
			r := selAt(sel, k)
			dst[r] = datum.TriFromDatum(dst[r]).Not().Datum()
		}
		return nil

	case *qtree.IsNull:
		if err := e.evalExprBatch(v.E, b, sel, bc, dst); err != nil {
			return err
		}
		for k := 0; k < n; k++ {
			r := selAt(sel, k)
			res := dst[r].IsNull()
			if v.Neg {
				res = !res
			}
			dst[r] = datum.NewBool(res)
		}
		return nil

	case *qtree.LNNVL:
		if err := e.evalExprBatch(v.E, b, sel, bc, dst); err != nil {
			return err
		}
		for k := 0; k < n; k++ {
			r := selAt(sel, k)
			dst[r] = datum.NewBool(datum.TriFromDatum(dst[r]).LNNVL())
		}
		return nil

	case *qtree.IsTrue:
		if err := e.evalExprBatch(v.E, b, sel, bc, dst); err != nil {
			return err
		}
		for k := 0; k < n; k++ {
			r := selAt(sel, k)
			dst[r] = datum.NewBool(datum.TriFromDatum(dst[r]).Accept())
		}
		return nil

	case *qtree.Like:
		sv := bc.getVec(b.N)
		pv := bc.getVec(b.N)
		defer bc.putVec(sv)
		defer bc.putVec(pv)
		if err := e.evalExprBatch(v.E, b, sel, bc, sv); err != nil {
			return err
		}
		if err := e.evalExprBatch(v.Pattern, b, sel, bc, pv); err != nil {
			return err
		}
		for k := 0; k < n; k++ {
			r := selAt(sel, k)
			s, p := sv[r], pv[r]
			if s.IsNull() || p.IsNull() {
				dst[r] = datum.Null
				continue
			}
			ss, err := s.AsStr()
			if err != nil {
				return fmt.Errorf("exec: LIKE operand %s: %w", v.E, err)
			}
			ps, err := p.AsStr()
			if err != nil {
				return fmt.Errorf("exec: LIKE pattern %s: %w", v.Pattern, err)
			}
			m := likeMatch(ss, ps)
			if v.Neg {
				m = !m
			}
			dst[r] = datum.NewBool(m)
		}
		return nil
	}

	// Fallback: evaluate row-at-a-time over a scratch row. Covers
	// subqueries (with their tuple-iteration caches), CASE, IN lists and
	// function calls.
	for k := 0; k < n; k++ {
		r := selAt(sel, k)
		b.gather(r, bc.scratch)
		bc.rowCtx.row = bc.scratch
		d, err := e.evalExpr(x, &bc.rowCtx)
		if err != nil {
			return err
		}
		dst[r] = d
	}
	return nil
}

// evalBinBatch evaluates a binary expression over a batch. AND/OR keep the
// row engine's per-row short-circuit by narrowing the selection the second
// operand is evaluated under: rows already decided by the first operand
// never evaluate the second, so side conditions (division errors, type
// errors) surface exactly when the row engine would surface them.
func (e *env) evalBinBatch(v *qtree.Bin, b *Batch, sel []int, bc *batchCtx, dst []datum.Datum) error {
	n := selCount(b, sel)
	switch v.Op {
	case qtree.OpAnd, qtree.OpOr:
		lv := bc.getVec(b.N)
		defer bc.putVec(lv)
		if err := e.evalExprBatch(v.L, b, sel, bc, lv); err != nil {
			return err
		}
		// Decide rows the first operand settles; collect the rest.
		short := datum.False
		if v.Op == qtree.OpOr {
			short = datum.True
		}
		rest := bc.getSel(n)
		defer bc.putSel(rest)
		for k := 0; k < n; k++ {
			r := selAt(sel, k)
			if datum.TriFromDatum(lv[r]) == short {
				dst[r] = short.Datum()
			} else {
				rest = append(rest, r)
			}
		}
		if len(rest) == 0 {
			return nil
		}
		rv := bc.getVec(b.N)
		defer bc.putVec(rv)
		if err := e.evalExprBatch(v.R, b, rest, bc, rv); err != nil {
			return err
		}
		for _, r := range rest {
			l := datum.TriFromDatum(lv[r])
			rt := datum.TriFromDatum(rv[r])
			if v.Op == qtree.OpAnd {
				dst[r] = l.And(rt).Datum()
			} else {
				dst[r] = l.Or(rt).Datum()
			}
		}
		return nil
	}

	lv := bc.getVec(b.N)
	rv := bc.getVec(b.N)
	defer bc.putVec(lv)
	defer bc.putVec(rv)
	if err := e.evalExprBatch(v.L, b, sel, bc, lv); err != nil {
		return err
	}
	if err := e.evalExprBatch(v.R, b, sel, bc, rv); err != nil {
		return err
	}
	for k := 0; k < n; k++ {
		r := selAt(sel, k)
		d, err := applyBin(v, lv[r], rv[r])
		if err != nil {
			return err
		}
		dst[r] = d
	}
	return nil
}

// evalPredsBatch refines b.Sel through a conjunct list: after it returns,
// only rows for which every predicate is TRUE remain selected. Later
// conjuncts are evaluated only for rows surviving earlier ones, matching
// the row engine's conjunct short-circuit. Observes per-batch selectivity
// when the run exports metrics.
func (e *env) evalPredsBatch(preds []qtree.Expr, b *Batch, bc *batchCtx) error {
	if len(preds) == 0 {
		return nil
	}
	before := b.Rows()
	for _, p := range preds {
		if b.Rows() == 0 {
			break
		}
		dst := bc.getVec(b.N)
		if err := e.evalExprBatch(p, b, b.Sel, bc, dst); err != nil {
			bc.putVec(dst)
			return err
		}
		out := bc.predSel(b.Rows())
		if b.Sel == nil {
			for r := 0; r < b.N; r++ {
				if datum.TriFromDatum(dst[r]).Accept() {
					out = append(out, r)
				}
			}
		} else {
			for _, r := range b.Sel {
				if datum.TriFromDatum(dst[r]).Accept() {
					out = append(out, r)
				}
			}
		}
		b.Sel = out
		bc.putVec(dst)
	}
	if e.selHist != nil && before > 0 {
		e.selHist.Observe(float64(b.Rows()) * 100 / float64(before))
	}
	return nil
}

package exec

import (
	"repro/internal/datum"
	"repro/internal/optimizer"
	"repro/internal/qtree"
)

// maxPresize caps the hash-table pre-sizing taken from the optimizer's
// cardinality estimate, so a wildly wrong estimate cannot allocate an
// arbitrarily large empty table.
const maxPresize = 1 << 20

// batchHashJoinIter is the vectorized hash join. The build side (right
// input) is drained batch-wise into a hash table pre-sized from the
// optimizer's cardinality estimate for that subtree; probe keys are
// evaluated column-wise per left batch. Semijoin-family kinds refine the
// left batch's selection vector in place (their output schema is the left
// schema); inner and outer kinds assemble combined output batches, carrying
// probe state across NextBatch calls so one wide probe row can span several
// output batches. Null-key, residual-predicate and outer-padding semantics
// replicate the row engine's hashJoinIter exactly.
type batchHashJoinIter struct {
	e    *env
	n    *optimizer.Join
	l, r batchIterator

	combCtx Ctx
	comb    Row // scratch combined row for residual On evaluation
	nLeft   int
	nRight  int
	// leftLive and rightLive are the live slots of the two inputs. Only
	// they are copied into comb and the output batch, and only the live
	// build columns are stored.
	leftLive, rightLive []int

	table keyTable
	// Single-key fast path: when the join has exactly one non-null-safe
	// equi-key, integer-valued keys (KInt and integral KFloat, which
	// datum.AppendKey encodes alike) hash as raw int64, skipping the key
	// encoding on both sides. The first build key that is not
	// integer-valued demotes the whole table to the generic encoded form.
	intMode  bool
	intTable map[int64][]int
	// buildCols stores the build side columnar (buildCols[c][ri] is column
	// c of build row ri): one growing slice per live column instead of one
	// Row allocation per build row. A dead column's slice stays nil.
	buildCols [][]datum.Datum
	// presenceOnly marks semijoin-family builds with no residual On
	// predicates: build columns are never read and a key's verdict depends
	// only on whether its bucket is non-empty, so the drain stores neither
	// columns nor duplicate bucket entries.
	presenceOnly bool
	nBuild       int
	buildMatched []bool
	buildNulls   bool

	bcL     *batchCtx
	bcR     *batchCtx
	key     []byte          // encoded-key scratch (generic path)
	keyVecs [][]datum.Datum // probe-key vectors of the current batch
	// Per physical probe row: the matching build bucket (nil when the key
	// is null or absent) and whether a non-null-safe key part is null.
	keyBucket [][]int
	keyNull   []bool

	// Probe continuation state (inner/outer kinds).
	cur        *Batch
	k          int // next live index in cur
	inRow      bool
	curRow     int // physical index of the probe row being expanded
	bucket     []int
	bucketPos  int
	rowMatched bool
	leftDone   bool
	done       bool
	tailPos    int
	out        Batch
	sel        []int // selection scratch for semijoin-family kinds
}

func newBatchHashJoin(e *env, n *optimizer.Join, l, r batchIterator) *batchHashJoinIter {
	nLeft, nRight := len(n.L.Columns()), len(n.R.Columns())
	it := &batchHashJoinIter{e: e, n: n, l: l, r: r, nLeft: nLeft, nRight: nRight,
		leftLive: liveSlots(n.L), rightLive: liveSlots(n.R),
		combCtx: schemaCtx(joinSchema(n)), comb: make(Row, nLeft+nRight),
		keyVecs: make([][]datum.Datum, len(n.EqL)),
		bcL:     newBatchCtx(e, n.L.Columns()), bcR: newBatchCtx(e, n.R.Columns())}
	if poisonDead {
		poison(it.comb)
	}
	it.out.onlyLive(liveSlots(n))
	return it
}

func (it *batchHashJoinIter) Open(outer *Ctx) error {
	it.combCtx.parent = outer
	it.bcL.bind(outer)
	it.bcR.bind(outer)
	it.cur = nil
	it.k = 0
	it.inRow = false
	it.leftDone = false
	it.done = false
	it.tailPos = 0
	it.buildNulls = false
	it.buildMatched = nil

	// Pre-size the build structures from the optimizer's estimate: on a
	// well-estimated build side the table never rehashes during the drain.
	est := int(it.n.R.Cost().Rows)
	if est < 0 {
		est = 0
	}
	if est > maxPresize {
		est = maxPresize
	}
	it.intMode = len(it.n.EqR) == 1 && !it.n.NullSafe(0)
	if it.intMode {
		it.intTable = make(map[int64][]int, est)
		it.table = keyTable{}
	} else {
		it.intTable = nil
		it.table = newKeyTable(est)
	}
	switch it.n.Kind {
	case qtree.JoinSemi, qtree.JoinAnti, qtree.JoinNullAwareAnti:
		it.presenceOnly = len(it.n.On) == 0
	default:
		it.presenceOnly = false
	}
	if it.presenceOnly {
		it.buildCols = nil
	} else {
		it.buildCols = make([][]datum.Datum, it.nRight)
		for _, c := range it.rightLive {
			it.buildCols[c] = make([]datum.Datum, 0, est)
		}
	}
	it.nBuild = 0

	if err := it.r.Open(outer); err != nil {
		return err
	}
	bcR := it.bcR
	vecs := make([][]datum.Datum, len(it.n.EqR))
	key := make(Row, len(it.n.EqR))
	for {
		rb, err := it.r.NextBatch()
		if err != nil {
			return err
		}
		if rb == nil {
			break
		}
		for i, ex := range it.n.EqR {
			vecs[i] = bcR.getVec(rb.N)
			if err := it.e.evalExprBatch(ex, rb, rb.Sel, bcR, vecs[i]); err != nil {
				return err
			}
		}
		for k := 0; k < rb.Rows(); k++ {
			r := rb.Live(k)
			hasNull := false
			for i := range it.n.EqR {
				d := vecs[i][r]
				if d.IsNull() && !it.n.NullSafe(i) {
					hasNull = true
				}
				key[i] = d
			}
			idx := it.nBuild
			if !it.presenceOnly {
				for _, c := range it.rightLive {
					it.buildCols[c] = append(it.buildCols[c], rb.Cols[c][r])
				}
			}
			it.nBuild++ // counted even when presenceOnly: NOT IN needs the empty-set check
			if hasNull {
				// Null keys never match under plain equality; under a full
				// outer join the row still surfaces in the unmatched tail.
				it.buildNulls = true
				continue
			}
			it.insertBuild(key, idx)
		}
		for i := range vecs {
			bcR.putVec(vecs[i])
		}
	}
	if it.n.Kind == qtree.JoinFullOuter {
		it.buildMatched = make([]bool, it.nBuild)
	}
	return it.l.Open(outer)
}

// insertBuild adds build row idx under its join key, demoting from the
// int64 fast path to the generic table on the first build key that is not
// integer-valued.
func (it *batchHashJoinIter) insertBuild(key Row, idx int) {
	if it.intMode {
		if v, ok := intJoinKey(key[0]); ok {
			bucket := it.intTable[v]
			if it.presenceOnly && len(bucket) > 0 {
				return
			}
			it.intTable[v] = append(bucket, idx)
			return
		}
		it.demote()
	}
	it.key = appendRowKey(it.key[:0], key)
	bucket := it.table.slot(it.key)
	if it.presenceOnly && len(*bucket) > 0 {
		return
	}
	*bucket = append(*bucket, idx)
}

// demote moves the int64 table into the generic table. The key of an
// integer-valued datum is fully determined by its int64 reduction
// (datum.AppendKey encodes integral floats in the integer form), so the
// buckets move over verbatim under the key of datum.NewInt(v).
func (it *batchHashJoinIter) demote() {
	for v, bucket := range it.intTable {
		it.key = datum.AppendKey(it.key[:0], datum.NewInt(v))
		*it.table.slot(it.key) = bucket
	}
	it.intTable = nil
	it.intMode = false
}

// intJoinKey reduces a datum to the int64 hash key shared by integers and
// integral floats, mirroring datum.AppendKey's cross-kind grouping. Nulls,
// strings, bools and non-integral floats do not reduce.
func intJoinKey(d datum.Datum) (int64, bool) {
	switch d.Kind() {
	case datum.KInt:
		return d.Int(), true
	case datum.KFloat:
		f := d.Float()
		if i := int64(f); f == float64(i) {
			return i, true
		}
	}
	return 0, false
}

// prepKeys evaluates the probe-key expressions for a left batch
// column-wise and resolves each live row's build bucket and null flag.
func (it *batchHashJoinIter) prepKeys(b *Batch) error {
	if cap(it.keyNull) < b.N {
		it.keyBucket = make([][]int, b.N)
		it.keyNull = make([]bool, b.N)
	}
	it.keyBucket = it.keyBucket[:b.N]
	it.keyNull = it.keyNull[:b.N]
	vecs := it.keyVecs
	for i, ex := range it.n.EqL {
		vecs[i] = it.bcL.getVec(b.N)
		if err := it.e.evalExprBatch(ex, b, b.Sel, it.bcL, vecs[i]); err != nil {
			return err
		}
	}
	for k := 0; k < b.Rows(); k++ {
		r := b.Live(k)
		it.keyBucket[r] = nil
		if it.intMode {
			// intMode implies one non-null-safe key. A key that is not
			// integer-valued cannot equal anything in an all-integer table.
			d := vecs[0][r]
			it.keyNull[r] = d.IsNull()
			if v, ok := intJoinKey(d); ok {
				it.keyBucket[r] = it.intTable[v]
			}
			continue
		}
		hasNull := false
		it.key = it.key[:0]
		for i := range vecs {
			d := vecs[i][r]
			if d.IsNull() && !it.n.NullSafe(i) {
				hasNull = true
			}
			it.key = datum.AppendKey(it.key, d)
		}
		it.keyNull[r] = hasNull
		if !hasNull {
			it.keyBucket[r] = it.table.get(it.key)
		}
	}
	for i := range vecs {
		it.bcL.putVec(vecs[i])
	}
	return nil
}

// onMatch evaluates the residual join predicates for (probe row r, build
// row ri); with no residual predicates every bucket entry matches.
func (it *batchHashJoinIter) onMatch(b *Batch, r, ri int) (bool, error) {
	if len(it.n.On) == 0 {
		return true, nil
	}
	for _, c := range it.leftLive {
		it.comb[c] = b.Cols[c][r]
	}
	for _, c := range it.rightLive {
		it.comb[it.nLeft+c] = it.buildCols[c][ri]
	}
	it.combCtx.row = it.comb
	return it.e.evalPreds(it.n.On, &it.combCtx)
}

// anyMatch reports whether any build row in the key's bucket passes the
// residual predicates.
func (it *batchHashJoinIter) anyMatch(b *Batch, r int) (bool, error) {
	bucket := it.keyBucket[r]
	if len(it.n.On) == 0 {
		return len(bucket) > 0, nil
	}
	for _, ri := range bucket {
		ok, err := it.onMatch(b, r, ri)
		if err != nil {
			return false, err
		}
		if ok {
			return true, nil
		}
	}
	return false, nil
}

func (it *batchHashJoinIter) NextBatch() (*Batch, error) {
	if err := it.e.checkCancelBatch(); err != nil {
		return nil, err
	}
	switch it.n.Kind {
	case qtree.JoinSemi, qtree.JoinAnti, qtree.JoinNullAwareAnti:
		return it.nextFilterBatch()
	}
	return it.nextCombineBatch()
}

// nextFilterBatch handles the semijoin-family kinds by refining the left
// batch's selection to rows whose verdict is emit.
func (it *batchHashJoinIter) nextFilterBatch() (*Batch, error) {
	for {
		b, err := it.l.NextBatch()
		if err != nil || b == nil {
			return nil, err
		}
		if err := it.prepKeys(b); err != nil {
			return nil, err
		}
		it.sel = it.sel[:0]
		for k := 0; k < b.Rows(); k++ {
			r := b.Live(k)
			emit, err := it.verdict(b, r)
			if err != nil {
				return nil, err
			}
			if emit {
				it.sel = append(it.sel, r)
			}
		}
		if len(it.sel) > 0 {
			b.Sel = it.sel
			return b, nil
		}
	}
}

// verdict computes the semijoin/antijoin decision for one probe row,
// mirroring hashJoinIter's per-kind null handling.
func (it *batchHashJoinIter) verdict(b *Batch, r int) (bool, error) {
	hasNull := it.keyNull[r]
	switch it.n.Kind {
	case qtree.JoinSemi:
		if hasNull {
			return false, nil
		}
		return it.anyMatch(b, r)
	case qtree.JoinAnti:
		if hasNull {
			// Unknown comparison: NOT EXISTS-style anti keeps the row.
			return true, nil
		}
		ok, err := it.anyMatch(b, r)
		return !ok, err
	default: // JoinNullAwareAnti
		if it.nBuild == 0 {
			return true, nil // NOT IN over empty set is TRUE
		}
		if it.buildNulls || hasNull {
			return false, nil // UNKNOWN everywhere: row suppressed
		}
		ok, err := it.anyMatch(b, r)
		return !ok, err
	}
}

// emitComb appends probe row r combined with build row ri to the output,
// live slots only (as do the two pad emitters).
func (it *batchHashJoinIter) emitComb(r, ri int) {
	n := it.out.N
	for _, c := range it.leftLive {
		it.out.Cols[c][n] = it.cur.Cols[c][r]
	}
	for _, c := range it.rightLive {
		it.out.Cols[it.nLeft+c][n] = it.buildCols[c][ri]
	}
	it.out.N++
}

// emitLeftPad appends probe row r padded with right NULLs (left/full outer).
func (it *batchHashJoinIter) emitLeftPad(r int) {
	n := it.out.N
	for _, c := range it.leftLive {
		it.out.Cols[c][n] = it.cur.Cols[c][r]
	}
	for _, c := range it.rightLive {
		it.out.Cols[it.nLeft+c][n] = datum.Null
	}
	it.out.N++
}

// emitRightPad appends unmatched build row ri padded with left NULLs (full
// outer tail).
func (it *batchHashJoinIter) emitRightPad(ri int) {
	n := it.out.N
	for _, c := range it.leftLive {
		it.out.Cols[c][n] = datum.Null
	}
	for _, c := range it.rightLive {
		it.out.Cols[it.nLeft+c][n] = it.buildCols[c][ri]
	}
	it.out.N++
}

// nextCombineBatch drives the inner/outer probe state machine until the
// output batch fills or input is exhausted.
func (it *batchHashJoinIter) nextCombineBatch() (*Batch, error) {
	if it.done {
		return nil, nil
	}
	outerPad := it.n.Kind == qtree.JoinLeftOuter || it.n.Kind == qtree.JoinFullOuter
	fill := it.out.grow(it.nLeft+it.nRight, it.e.batchSize)
	for {
		if it.out.N == fill {
			return &it.out, nil
		}
		if it.leftDone {
			// Full outer tail: build rows that never matched.
			for it.tailPos < it.nBuild && it.out.N < fill {
				i := it.tailPos
				it.tailPos++
				if it.buildMatched[i] {
					continue
				}
				it.emitRightPad(i)
			}
			if it.tailPos >= it.nBuild {
				it.done = true
				return it.flush()
			}
			continue
		}
		if it.inRow {
			for it.bucketPos < len(it.bucket) && it.out.N < fill {
				ri := it.bucket[it.bucketPos]
				it.bucketPos++
				ok, err := it.onMatch(it.cur, it.curRow, ri)
				if err != nil {
					return nil, err
				}
				if ok {
					it.rowMatched = true
					if it.buildMatched != nil {
						it.buildMatched[ri] = true
					}
					it.emitComb(it.curRow, ri)
				}
			}
			if it.bucketPos < len(it.bucket) {
				return &it.out, nil // output full mid-bucket; resume here
			}
			if outerPad && !it.rowMatched {
				if it.out.N == fill {
					return &it.out, nil // resume with the padding next call
				}
				it.emitLeftPad(it.curRow)
			}
			it.inRow = false
			continue
		}
		if it.cur == nil || it.k >= it.cur.Rows() {
			b, err := it.l.NextBatch()
			if err != nil {
				return nil, err
			}
			if b == nil {
				if it.n.Kind == qtree.JoinFullOuter {
					it.leftDone = true
					continue
				}
				it.done = true
				return it.flush()
			}
			if err := it.prepKeys(b); err != nil {
				return nil, err
			}
			it.cur = b
			it.k = 0
		}
		r := it.cur.Live(it.k)
		it.k++
		it.curRow = r
		it.bucket = it.keyBucket[r]
		it.bucketPos = 0
		it.rowMatched = false
		it.inRow = true
	}
}

// flush returns the partial output batch, or nil when it is empty.
func (it *batchHashJoinIter) flush() (*Batch, error) {
	if it.out.N > 0 {
		return &it.out, nil
	}
	return nil, nil
}

func (it *batchHashJoinIter) Close() error {
	it.l.Close()
	return it.r.Close()
}

// memBytes approximates the build side: rows plus hash-table buckets. The
// per-row term uses the row engine's rowBytes formula on the columnar
// store at the build side's full schema width, although only its live
// columns are stored, so EXPLAIN ANALYZE mem= stays comparable across
// engines (and its goldens stable).
func (it *batchHashJoinIter) memBytes() int64 {
	b := it.table.memBytes()
	if !it.presenceOnly {
		b += int64(it.nBuild) * (48 + datumBytes*int64(it.nRight))
	}
	for _, bucket := range it.intTable {
		b += 48 + 8 + 8*int64(len(bucket))
	}
	return b
}

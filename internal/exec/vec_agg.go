package exec

import (
	"repro/internal/datum"
	"repro/internal/optimizer"
)

// batchAggIter is the vectorized hash aggregation: grouping expressions and
// aggregate arguments are evaluated column-wise per input batch, then folded
// into the same aggHash core the row engine uses, so grouping-set masking,
// NULL handling, DISTINCT tracking and output ordering are shared code.
type batchAggIter struct {
	e     *env
	n     *optimizer.Agg
	child batchIterator
	bc    *batchCtx

	out []Row
	pos int
	b   Batch
}

func newBatchAgg(e *env, n *optimizer.Agg, child batchIterator) *batchAggIter {
	return &batchAggIter{e: e, n: n, child: child, bc: newBatchCtx(e, n.Child.Columns())}
}

func (it *batchAggIter) Open(outer *Ctx) error {
	if err := it.child.Open(outer); err != nil {
		return err
	}
	it.out = nil
	it.pos = 0
	bc := it.bc
	bc.bind(outer)
	h := newAggHash(it.n)
	gbVecs := make([][]datum.Datum, len(it.n.GroupBy))
	argVecs := make([][]datum.Datum, len(it.n.Aggs))
	gbVals := make(Row, len(it.n.GroupBy))
	argVals := make(Row, len(it.n.Aggs))

	for {
		b, err := it.child.NextBatch()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		for i, g := range it.n.GroupBy {
			gbVecs[i] = bc.getVec(b.N)
			if err := it.e.evalExprBatch(g, b, b.Sel, bc, gbVecs[i]); err != nil {
				return err
			}
		}
		for i, a := range it.n.Aggs {
			argVecs[i] = nil
			if a.Star || a.Arg == nil {
				continue
			}
			argVecs[i] = bc.getVec(b.N)
			if err := it.e.evalExprBatch(a.Arg, b, b.Sel, bc, argVecs[i]); err != nil {
				return err
			}
		}
		for k := 0; k < b.Rows(); k++ {
			r := b.Live(k)
			for i := range it.n.GroupBy {
				gbVals[i] = gbVecs[i][r]
			}
			for i := range it.n.Aggs {
				if argVecs[i] != nil {
					argVals[i] = argVecs[i][r]
				}
			}
			if err := h.update(gbVals, argVals); err != nil {
				return err
			}
		}
		for i := range gbVecs {
			bc.putVec(gbVecs[i])
		}
		for i := range argVecs {
			if argVecs[i] != nil {
				bc.putVec(argVecs[i])
			}
		}
	}
	it.out = h.results()
	return nil
}

func (it *batchAggIter) NextBatch() (*Batch, error) {
	if it.pos >= len(it.out) {
		return nil, nil
	}
	width := len(it.n.Columns())
	fill := it.b.grow(width, it.e.batchSize)
	for it.b.N < fill && it.pos < len(it.out) {
		it.b.appendRow(it.out[it.pos])
		it.pos++
	}
	return &it.b, nil
}

func (it *batchAggIter) Close() error { return it.child.Close() }

// memBytes approximates the materialized group rows (same formula as the
// row engine's aggIter).
func (it *batchAggIter) memBytes() int64 { return rowsBytes(it.out) }

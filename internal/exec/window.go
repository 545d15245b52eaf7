package exec

import (
	"sort"

	"repro/internal/datum"
	"repro/internal/optimizer"
	"repro/internal/qtree"
)

// windowIter materializes its input and computes analytic functions: for
// each window function the rows are grouped by the PARTITION BY values,
// ordered by the window's ORDER BY, and either the whole-partition
// aggregate or the running (RANGE UNBOUNDED PRECEDING .. CURRENT ROW)
// aggregate is attached to every row. Rows are emitted in input order with
// the function results appended.
type windowIter struct {
	e     *env
	n     *optimizer.Window
	child iterator

	out []Row
	pos int
}

func newWindow(e *env, n *optimizer.Window, child iterator) *windowIter {
	return &windowIter{e: e, n: n, child: child}
}

func (it *windowIter) Open(outer *Ctx) error {
	if err := it.child.Open(outer); err != nil {
		return err
	}
	it.out = nil
	it.pos = 0
	ctx := &Ctx{parent: outer, cols: colMap(it.n.Child.Columns())}

	var rows []Row
	for {
		r, err := it.child.Next()
		if err != nil {
			return err
		}
		if r == nil {
			break
		}
		rows = append(rows, r)
	}

	// results[f][i] is function f's value for input row i.
	results := make([][]datum.Datum, len(it.n.Funcs))
	for fi, f := range it.n.Funcs {
		vals, err := it.computeFunc(f, rows, ctx)
		if err != nil {
			return err
		}
		results[fi] = vals
	}

	for i, r := range rows {
		out := make(Row, 0, len(r)+len(it.n.Funcs))
		out = append(out, r...)
		for fi := range it.n.Funcs {
			out = append(out, results[fi][i])
		}
		it.out = append(it.out, out)
	}
	return nil
}

// computeFunc evaluates one window function over all rows.
func (it *windowIter) computeFunc(f *qtree.WinFunc, rows []Row, ctx *Ctx) ([]datum.Datum, error) {
	n := len(rows)
	vals := make([]datum.Datum, n)

	// Partition rows.
	parts := map[string][]int{}
	var order []string
	for i, r := range rows {
		ctx.row = r
		key := make(Row, len(f.PartitionBy))
		for k, pe := range f.PartitionBy {
			d, err := it.e.evalExpr(pe, ctx)
			if err != nil {
				return nil, err
			}
			key[k] = d
		}
		ks := rowKey(key)
		if _, ok := parts[ks]; !ok {
			order = append(order, ks)
		}
		parts[ks] = append(parts[ks], i)
	}

	for _, ks := range order {
		idxs := parts[ks]
		// Order within the partition.
		sortKeys := make([]Row, len(idxs))
		if len(f.OrderBy) > 0 {
			for j, i := range idxs {
				ctx.row = rows[i]
				sk := make(Row, len(f.OrderBy))
				for k, oi := range f.OrderBy {
					d, err := it.e.evalExpr(oi.Expr, ctx)
					if err != nil {
						return nil, err
					}
					sk[k] = d
				}
				sortKeys[j] = sk
			}
			perm := make([]int, len(idxs))
			for j := range perm {
				perm[j] = j
			}
			sort.SliceStable(perm, func(a, b int) bool {
				ka, kb := sortKeys[perm[a]], sortKeys[perm[b]]
				for k := range f.OrderBy {
					c := nullsFirstCompare(ka[k], kb[k])
					if f.OrderBy[k].Desc {
						c = -c
					}
					if c != 0 {
						return c < 0
					}
				}
				return false
			})
			ordered := make([]int, len(idxs))
			orderedKeys := make([]Row, len(idxs))
			for j, p := range perm {
				ordered[j] = idxs[p]
				orderedKeys[j] = sortKeys[p]
			}
			idxs, sortKeys = ordered, orderedKeys
		}

		if f.Op == qtree.WinRowNumber {
			for j, i := range idxs {
				vals[i] = datum.NewInt(int64(j + 1))
			}
			continue
		}

		// Evaluate the argument per row.
		args := make([]datum.Datum, len(idxs))
		for j, i := range idxs {
			if f.Star {
				args[j] = datum.NewInt(1)
				continue
			}
			ctx.row = rows[i]
			d, err := it.e.evalExpr(f.Arg, ctx)
			if err != nil {
				return nil, err
			}
			args[j] = d
		}

		if f.Running && len(f.OrderBy) > 0 {
			// RANGE frame: each row's frame covers all rows up to and
			// including its order-key peers.
			st := newAggState(optimizer.AggSpec{Op: winToAgg(f.Op), Star: f.Star})
			j := 0
			for j < len(idxs) {
				// Advance over the peer group.
				k := j
				for k < len(idxs) && compareKeyRows(sortKeys[k], sortKeys[j]) == 0 {
					if err := st.add(args[k]); err != nil {
						return nil, err
					}
					k++
				}
				peerVal := st.result()
				for ; j < k; j++ {
					vals[idxs[j]] = peerVal
				}
			}
			continue
		}

		// Whole-partition aggregate.
		st := newAggState(optimizer.AggSpec{Op: winToAgg(f.Op), Star: f.Star})
		for _, a := range args {
			if err := st.add(a); err != nil {
				return nil, err
			}
		}
		v := st.result()
		for _, i := range idxs {
			vals[i] = v
		}
	}
	return vals, nil
}

// compareKeyRows orders two order-key rows column by column, nulls first.
func compareKeyRows(a, b Row) int {
	for i := range a {
		c := nullsFirstCompare(a[i], b[i])
		if c != 0 {
			return c
		}
	}
	return 0
}

func winToAgg(op qtree.WinOp) qtree.AggOp {
	switch op {
	case qtree.WinCount:
		return qtree.AggCount
	case qtree.WinSum:
		return qtree.AggSum
	case qtree.WinAvg:
		return qtree.AggAvg
	case qtree.WinMin:
		return qtree.AggMin
	case qtree.WinMax:
		return qtree.AggMax
	}
	return qtree.AggCount
}

func (it *windowIter) Next() (Row, error) {
	if it.pos >= len(it.out) {
		return nil, nil
	}
	r := it.out[it.pos]
	it.pos++
	return r, nil
}

func (it *windowIter) Close() error { return it.child.Close() }

// memBytes approximates the materialized input plus appended results.
func (it *windowIter) memBytes() int64 { return rowsBytes(it.out) }

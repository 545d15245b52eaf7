package exec

import (
	"testing"

	"repro/internal/datum"
	"repro/internal/optimizer"
	"repro/internal/qtree"
)

// fuzzSchema is three columns of deliberately unstable types: the fuzzer
// mixes ints, floats, strings, booleans and NULLs inside each column, so
// expressions hit both value paths and type-error paths.
var fuzzSchema = []optimizer.ColID{
	{From: 1, Ord: 0},
	{From: 1, Ord: 1},
	{From: 1, Ord: 2},
}

func fuzzCol(ord int) qtree.Expr { return &qtree.Col{From: 1, Ord: ord, Name: "c"} }

// fuzzExprs is the expression corpus: arithmetic, comparisons, three-valued
// AND/OR, LIKE, concatenation, IS NULL, NOT, LNNVL, null-safe equality,
// IN-lists, division (error path) and CASE (per-row fallback path).
var fuzzExprs = []qtree.Expr{
	&qtree.Bin{Op: qtree.OpAdd, L: fuzzCol(0), R: fuzzCol(1)},
	&qtree.Bin{Op: qtree.OpEq, L: fuzzCol(0), R: fuzzCol(1)},
	&qtree.Bin{Op: qtree.OpAnd,
		L: &qtree.Bin{Op: qtree.OpLt, L: fuzzCol(0), R: fuzzCol(1)},
		R: &qtree.IsNull{E: fuzzCol(2), Neg: true}},
	&qtree.Bin{Op: qtree.OpOr,
		L: &qtree.Bin{Op: qtree.OpGt, L: fuzzCol(0), R: fuzzCol(1)},
		R: &qtree.Bin{Op: qtree.OpEq, L: fuzzCol(2), R: fuzzCol(2)}},
	&qtree.Like{E: fuzzCol(2), Pattern: &qtree.Const{Val: datum.NewString("a%")}},
	&qtree.Like{E: fuzzCol(2), Pattern: fuzzCol(1), Neg: true},
	&qtree.Bin{Op: qtree.OpConcat, L: fuzzCol(2), R: fuzzCol(0)},
	&qtree.Not{E: &qtree.Bin{Op: qtree.OpLe, L: fuzzCol(0), R: fuzzCol(1)}},
	&qtree.LNNVL{E: &qtree.Bin{Op: qtree.OpEq, L: fuzzCol(0), R: fuzzCol(1)}},
	&qtree.Bin{Op: qtree.OpNullSafeEq, L: fuzzCol(0), R: fuzzCol(2)},
	&qtree.InList{E: fuzzCol(0), Vals: []qtree.Expr{
		&qtree.Const{Val: datum.NewInt(1)}, &qtree.Const{Val: datum.NewInt(7)}, fuzzCol(1)}},
	&qtree.InList{E: fuzzCol(2), Neg: true, Vals: []qtree.Expr{fuzzCol(0)}},
	&qtree.Bin{Op: qtree.OpDiv, L: fuzzCol(0), R: fuzzCol(1)},
	&qtree.Case{
		Whens: []qtree.CaseWhen{{
			Cond:   &qtree.Bin{Op: qtree.OpGt, L: fuzzCol(0), R: fuzzCol(1)},
			Result: fuzzCol(2)}},
		Else: fuzzCol(0)},
	&qtree.Bin{Op: qtree.OpAnd,
		L: &qtree.Bin{Op: qtree.OpOr,
			L: &qtree.IsNull{E: fuzzCol(0)},
			R: &qtree.Bin{Op: qtree.OpGe, L: fuzzCol(0), R: fuzzCol(1)}},
		R: &qtree.Bin{Op: qtree.OpNe, L: fuzzCol(1), R: fuzzCol(2)}},
	&qtree.IsTrue{E: &qtree.Bin{Op: qtree.OpLt, L: fuzzCol(0), R: fuzzCol(2)}},
}

// fuzzDatum decodes one byte into a datum, covering every kind plus NULL.
func fuzzDatum(b byte) datum.Datum {
	switch b % 6 {
	case 0:
		return datum.Null
	case 1:
		return datum.NewInt(int64(b) - 128)
	case 2:
		return datum.NewFloat(float64(b)/8 - 10)
	case 3:
		strs := []string{"", "a", "ab", "abc", "a%b", "_x", "%", "1", "2.5"}
		return datum.NewString(strs[int(b/6)%len(strs)])
	case 4:
		return datum.NewBool(b&1 == 0)
	default:
		return datum.NewInt(int64(b % 8))
	}
}

// FuzzBatchExpr is the expression-level differential: the same expression
// is evaluated over the same rows by the row-at-a-time evaluator and the
// vectorized one, over both a full and a fuzzed sub-selection. The two
// paths must agree on error presence per batch and, when error-free, on
// every value (including NULLs). This pins the vectorized evaluator —
// including its AND/OR undecided-subset logic and per-row fallbacks — to
// the row semantics on inputs no hand-written case list would cover.
func FuzzBatchExpr(f *testing.F) {
	f.Add(uint8(0), uint8(4), uint8(0xff), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add(uint8(2), uint8(9), uint8(0xa5), []byte{250, 13, 26, 39, 52, 65, 78, 91, 104, 117})
	f.Add(uint8(4), uint8(3), uint8(0x0f), []byte{9, 15, 21, 27, 33, 39})
	f.Add(uint8(12), uint8(5), uint8(0x55), []byte{1, 0, 1, 0, 200, 100, 50, 25})
	f.Fuzz(func(t *testing.T, pick, nrows, selMask uint8, data []byte) {
		x := fuzzExprs[int(pick)%len(fuzzExprs)]
		n := int(nrows)%32 + 1

		// Build the batch column-wise from the fuzz bytes.
		var b Batch
		b.reset(len(fuzzSchema), n)
		b.N = n
		for c := range fuzzSchema {
			for r := 0; r < n; r++ {
				var by byte
				if len(data) > 0 {
					by = data[(r*len(fuzzSchema)+c)%len(data)]
				}
				b.Cols[c][r] = fuzzDatum(by + byte(c)*37)
			}
		}
		// Fuzz the selection vector too: bit r%8 of selMask decides
		// liveness, with row 0 always live so the batch is never empty.
		sel := []int{0}
		for r := 1; r < n; r++ {
			if selMask&(1<<(r%8)) != 0 {
				sel = append(sel, r)
			}
		}
		b.Sel = sel

		e := newEnv(nil, nil, nil)

		// Row path: evaluate live rows in order, stopping at the first
		// error exactly like the volcano operators do.
		ctx := &Ctx{cols: newColIndex(fuzzSchema)}
		buf := make(Row, len(fuzzSchema))
		rowVals := make([]datum.Datum, 0, len(sel))
		var rowErr error
		for _, r := range sel {
			b.gather(r, buf)
			ctx.row = buf
			d, err := e.evalExpr(x, ctx)
			if err != nil {
				rowErr = err
				break
			}
			rowVals = append(rowVals, d)
		}

		// Batch path over the same selection.
		bc := newBatchCtx(e, fuzzSchema)
		dst := make([]datum.Datum, n)
		batchErr := e.evalExprBatch(x, &b, b.Sel, bc, dst)

		if (rowErr != nil) != (batchErr != nil) {
			t.Fatalf("error divergence: row=%v batch=%v\nexpr %d over %d rows", rowErr, batchErr, pick, n)
		}
		if rowErr != nil {
			return // both errored; the row identity of the error may differ
		}
		for k, r := range sel {
			got, want := dst[r], rowVals[k]
			if got.IsNull() != want.IsNull() || got.String() != want.String() {
				t.Fatalf("value divergence at row %d: batch=%s row=%s\nexpr %d", r, got, want, pick)
			}
		}
	})
}

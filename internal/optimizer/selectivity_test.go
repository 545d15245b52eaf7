package optimizer

import (
	"math"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datum"
	"repro/internal/qtree"
	"repro/internal/storage"
)

// estTable builds a table with uniform integer values 1..n and collects
// real statistics.
func estTable(t *testing.T, n int) (*estimator, qtree.FromID) {
	t.Helper()
	meta := &catalog.Table{
		Name: "T_EST",
		Cols: []catalog.Column{
			{Name: "V", Type: datum.KInt},
			{Name: "GRP", Type: datum.KInt, Nullable: true},
			{Name: "S", Type: datum.KString},
		},
	}
	var rows [][]datum.Datum
	for i := 1; i <= n; i++ {
		g := datum.NewInt(int64(i % 10))
		if i%20 == 0 {
			g = datum.Null
		}
		rows = append(rows, []datum.Datum{datum.NewInt(int64(i)), g, datum.NewString(string(rune('a' + i%26)))})
	}
	es := newEstimator(nil)
	es.addTable(1, analyzed(t, meta, rows))
	return es, 1
}

// analyzed commits rows into a fresh table of meta and returns meta with
// its statistics collected.
func analyzed(t *testing.T, meta *catalog.Table, rows [][]datum.Datum) *catalog.Table {
	t.Helper()
	db := storage.NewDB(catalog.New())
	if _, err := db.CreateTable(meta); err != nil {
		t.Fatal(err)
	}
	b := db.NewBatch()
	for _, r := range rows {
		if err := b.Insert(meta.Name, r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Commit(b); err != nil {
		t.Fatal(err)
	}
	db.Finalize()
	return meta
}

func col(id qtree.FromID, ord int) *qtree.Col {
	return &qtree.Col{From: id, Ord: ord, Name: "C"}
}

func cInt(v int64) qtree.Expr { return &qtree.Const{Val: datum.NewInt(v)} }

func TestEqSelectivityFromNDV(t *testing.T) {
	es, id := estTable(t, 1000)
	sel := es.selectivity(&qtree.Bin{Op: qtree.OpEq, L: col(id, 0), R: cInt(500)})
	// 1000 distinct values: about 1/1000.
	if sel < 0.0005 || sel > 0.005 {
		t.Errorf("eq selectivity = %v, want ~0.001", sel)
	}
	sel = es.selectivity(&qtree.Bin{Op: qtree.OpEq, L: col(id, 1), R: cInt(3)})
	// 10 distinct groups: about 1/10.
	if sel < 0.05 || sel > 0.2 {
		t.Errorf("group eq selectivity = %v, want ~0.1", sel)
	}
}

func TestRangeSelectivityInterpolates(t *testing.T) {
	es, id := estTable(t, 1000)
	cases := []struct {
		op     qtree.BinOp
		val    int64
		lo, hi float64
	}{
		{qtree.OpLt, 500, 0.4, 0.6},
		{qtree.OpLt, 100, 0.05, 0.15},
		{qtree.OpGt, 900, 0.05, 0.15},
		{qtree.OpGe, 1, 0.9, 1.0},
		{qtree.OpLe, 1000, 0.9, 1.0},
	}
	for _, c := range cases {
		sel := es.selectivity(&qtree.Bin{Op: c.op, L: col(id, 0), R: cInt(c.val)})
		if sel < c.lo || sel > c.hi {
			t.Errorf("sel(v %v %d) = %v, want in [%v, %v]", c.op, c.val, sel, c.lo, c.hi)
		}
	}
}

func TestNarrowRangeBetween(t *testing.T) {
	es, id := estTable(t, 1000)
	// v >= 100 AND v <= 130: true fraction 0.031. The two one-sided
	// estimates must compose to something in the right ballpark rather
	// than collapsing to zero (the intra-bucket interpolation regression).
	s1 := es.selectivity(&qtree.Bin{Op: qtree.OpGe, L: col(id, 0), R: cInt(100)})
	s2 := es.selectivity(&qtree.Bin{Op: qtree.OpLe, L: col(id, 0), R: cInt(130)})
	combined := s1 + s2 - 1
	if combined < 0.01 || combined > 0.08 {
		t.Errorf("narrow range = %v (s1=%v s2=%v), want ~0.031", combined, s1, s2)
	}
}

func TestNullPredicateSelectivity(t *testing.T) {
	es, id := estTable(t, 1000)
	isNull := es.selectivity(&qtree.IsNull{E: col(id, 1)})
	if isNull < 0.02 || isNull > 0.1 {
		t.Errorf("IS NULL = %v, want ~0.05", isNull)
	}
	notNull := es.selectivity(&qtree.IsNull{E: col(id, 1), Neg: true})
	if math.Abs(isNull+notNull-1) > 1e-9 {
		t.Errorf("IS NULL + IS NOT NULL = %v", isNull+notNull)
	}
}

func TestBooleanCombinators(t *testing.T) {
	es, id := estTable(t, 1000)
	p := &qtree.Bin{Op: qtree.OpLt, L: col(id, 0), R: cInt(500)}
	q := &qtree.Bin{Op: qtree.OpEq, L: col(id, 1), R: cInt(1)}
	and := es.selectivity(&qtree.Bin{Op: qtree.OpAnd, L: p, R: q})
	or := es.selectivity(&qtree.Bin{Op: qtree.OpOr, L: p, R: q})
	sp, sq := es.selectivity(p), es.selectivity(q)
	if math.Abs(and-sp*sq) > 1e-9 {
		t.Errorf("AND = %v, want %v", and, sp*sq)
	}
	if math.Abs(or-(sp+sq-sp*sq)) > 1e-9 {
		t.Errorf("OR = %v, want %v", or, sp+sq-sp*sq)
	}
	not := es.selectivity(&qtree.Not{E: p})
	if math.Abs(not-(1-sp)) > 1e-9 {
		t.Errorf("NOT = %v, want %v", not, 1-sp)
	}
}

func TestInListSelectivityScales(t *testing.T) {
	es, id := estTable(t, 1000)
	one := es.selectivity(&qtree.InList{E: col(id, 1), Vals: []qtree.Expr{cInt(1)}})
	three := es.selectivity(&qtree.InList{E: col(id, 1), Vals: []qtree.Expr{cInt(1), cInt(2), cInt(3)}})
	if three < 2*one {
		t.Errorf("IN list should scale with size: 1 -> %v, 3 -> %v", one, three)
	}
}

func TestJoinPredSelectivity(t *testing.T) {
	es, id := estTable(t, 1000)
	es2 := es // same estimator hosts a second relation
	meta := &catalog.Table{
		Name: "T2_EST",
		Cols: []catalog.Column{{Name: "W", Type: datum.KInt}},
	}
	var rows [][]datum.Datum
	for i := 1; i <= 100; i++ {
		rows = append(rows, []datum.Datum{datum.NewInt(int64(i % 10))})
	}
	es2.addTable(2, analyzed(t, meta, rows))
	// v(1000 ndv) = w(10 ndv): selectivity 1/max = 1/1000.
	sel := es2.selectivity(&qtree.Bin{Op: qtree.OpEq, L: col(id, 0), R: col(2, 0)})
	if math.Abs(sel-0.001) > 0.0005 {
		t.Errorf("join selectivity = %v, want ~0.001", sel)
	}
}

func TestUnknownParameterSelectivity(t *testing.T) {
	es, id := estTable(t, 1000)
	// Reference to an unregistered relation: a correlation parameter.
	sel := es.selectivity(&qtree.Bin{Op: qtree.OpEq, L: col(id, 1), R: col(99, 0)})
	if sel <= 0 || sel > 0.5 {
		t.Errorf("parameter eq = %v", sel)
	}
}

func TestSelectivityClamps(t *testing.T) {
	if clampSel(-1) != 1e-6 || clampSel(2) != 1 {
		t.Error("clampSel bounds")
	}
	if clamp01(-0.5) != 0 || clamp01(1.5) != 1 {
		t.Error("clamp01 bounds")
	}
}

func TestStringRangeInterpolation(t *testing.T) {
	f, ok := interpolate(datum.NewString("a"), datum.NewString("z"), datum.NewString("m"))
	if !ok || f < 0.3 || f > 0.7 {
		t.Errorf("string interpolation = %v, %v", f, ok)
	}
	// Dates as strings interpolate naturally.
	f, ok = interpolate(datum.NewString("19900101"), datum.NewString("20051231"), datum.NewString("19980101"))
	if !ok || f < 0.3 || f > 0.7 {
		t.Errorf("date interpolation = %v, %v", f, ok)
	}
	if _, ok := interpolate(datum.NewString("a"), datum.NewInt(5), datum.NewString("m")); ok {
		t.Error("mixed-kind interpolation should fail")
	}
}

func TestSubquerySelectivityDefaults(t *testing.T) {
	es, _ := estTable(t, 100)
	blk := &qtree.Block{}
	for _, k := range []qtree.SubqKind{qtree.SubqExists, qtree.SubqNotExists, qtree.SubqIn, qtree.SubqNotIn, qtree.SubqAnyCmp, qtree.SubqAllCmp} {
		s := es.selectivity(&qtree.Subq{Kind: k, Block: blk})
		if s <= 0 || s > 1 {
			t.Errorf("subq %v selectivity = %v", k, s)
		}
	}
}

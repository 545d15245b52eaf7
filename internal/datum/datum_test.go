package datum

import (
	"math"
	"testing"
	"testing/quick"
)

func TestKinds(t *testing.T) {
	cases := []struct {
		d    Datum
		kind Kind
		null bool
	}{
		{Null, KNull, true},
		{NewInt(7), KInt, false},
		{NewFloat(2.5), KFloat, false},
		{NewString("x"), KString, false},
		{NewBool(true), KBool, false},
		{Datum{}, KNull, true}, // zero value is NULL
	}
	for _, c := range cases {
		if c.d.Kind() != c.kind {
			t.Errorf("%v: kind = %v, want %v", c.d, c.d.Kind(), c.kind)
		}
		if c.d.IsNull() != c.null {
			t.Errorf("%v: IsNull = %v, want %v", c.d, c.d.IsNull(), c.null)
		}
	}
}

func TestAccessors(t *testing.T) {
	if NewInt(42).Int() != 42 {
		t.Error("Int accessor")
	}
	if NewFloat(1.5).Float() != 1.5 {
		t.Error("Float accessor")
	}
	if NewInt(3).Float() != 3.0 {
		t.Error("Float on int should convert")
	}
	if NewString("hi").Str() != "hi" {
		t.Error("Str accessor")
	}
	if !NewBool(true).Bool() || NewBool(false).Bool() {
		t.Error("Bool accessor")
	}
}

func TestAccessorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Int() on string did not panic")
		}
	}()
	_ = NewString("x").Int()
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Datum
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewInt(2), 1},
		{NewInt(1), NewFloat(1.5), -1},
		{NewFloat(2.0), NewInt(2), 0},
		{NewString("a"), NewString("b"), -1},
		{NewString("19990101"), NewString("19980101"), 1}, // date-as-string
		{NewBool(false), NewBool(true), -1},
	}
	for _, c := range cases {
		got, err := Compare(c.a, c.b)
		if err != nil {
			t.Fatalf("Compare(%v, %v): %v", c.a, c.b, err)
		}
		if got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareErrors(t *testing.T) {
	if _, err := Compare(Null, NewInt(1)); err == nil {
		t.Error("Compare with NULL should error")
	}
	if _, err := Compare(NewInt(1), NewString("x")); err == nil {
		t.Error("Compare int with string should error")
	}
}

func TestSameValue(t *testing.T) {
	if !SameValue(Null, Null) {
		t.Error("NULL should SameValue NULL (grouping semantics)")
	}
	if SameValue(Null, NewInt(0)) {
		t.Error("NULL should not SameValue 0")
	}
	if !SameValue(NewInt(2), NewFloat(2.0)) {
		t.Error("2 should SameValue 2.0")
	}
	if SameValue(NewInt(2), NewString("2")) {
		t.Error("2 should not SameValue '2'")
	}
}

func key(d Datum) string { return string(AppendKey(nil, d)) }

func TestKeyDistinguishesValues(t *testing.T) {
	ds := []Datum{
		Null, NewInt(0), NewInt(1), NewFloat(1.5), NewString(""),
		NewString("1"), NewBool(false), NewBool(true), NewString("N"),
		NewFloat(math.NaN()), NewFloat(math.Inf(1)), NewFloat(math.Inf(-1)),
		NewInt(math.MinInt64), NewFloat(-0.5),
	}
	seen := map[string]Datum{}
	for _, d := range ds {
		k := key(d)
		if prev, ok := seen[k]; ok {
			t.Errorf("Key collision between %v and %v", prev, d)
		}
		seen[k] = d
	}
	// Integral float and int must share a key (grouping equality), and so
	// must the two zeros and every NaN payload.
	same := [][2]Datum{
		{NewInt(7), NewFloat(7.0)},
		{NewInt(-7), NewFloat(-7.0)},
		{NewFloat(0), NewFloat(math.Copysign(0, -1))},
		{NewFloat(math.NaN()), NewFloat(math.Float64frombits(0x7ff8_0000_dead_beef))},
		{NewFloat(math.NaN()), NewFloat(math.Float64frombits(0xfff0_0000_0000_0001))},
	}
	for _, p := range same {
		if key(p[0]) != key(p[1]) {
			t.Errorf("%v and %v should share a grouping key", p[0], p[1])
		}
	}
}

func TestKeyMatchesSameValue(t *testing.T) {
	// Property: Key equality must coincide with SameValue for the kinds we
	// generate.
	f := func(a, b int64) bool {
		da, db := NewInt(a), NewInt(b)
		return (key(da) == key(db)) == SameValue(da, db)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(a, b float64) bool {
		da, db := NewFloat(a), NewFloat(b)
		return (key(da) == key(db)) == SameValue(da, db)
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
	h := func(a, b string) bool {
		da, db := NewString(a), NewString(b)
		return (key(da) == key(db)) == SameValue(da, db)
	}
	if err := quick.Check(h, nil); err != nil {
		t.Error(err)
	}
}

// TestFloatPayloadRoundTrip pins that the float payload keeps its exact
// bits: -0.0 stays negative and a NaN keeps its payload.
func TestFloatPayloadRoundTrip(t *testing.T) {
	for _, bits := range []uint64{
		math.Float64bits(math.Copysign(0, -1)),
		0x7ff8_0000_dead_beef,
		0xfff0_0000_0000_0001,
		math.Float64bits(math.Inf(-1)),
		math.Float64bits(1.5),
	} {
		if got := math.Float64bits(NewFloat(math.Float64frombits(bits)).Float()); got != bits {
			t.Errorf("float bits %#x came back as %#x", bits, got)
		}
	}
	if NewInt(math.MinInt64).Int() != math.MinInt64 || NewInt(-1).Int() != -1 {
		t.Error("negative ints do not round-trip")
	}
}

func TestSameValueNaN(t *testing.T) {
	nan := NewFloat(math.NaN())
	if !SameValue(nan, NewFloat(math.Float64frombits(0x7ff8_0000_dead_beef))) {
		t.Error("NaN should SameValue NaN (grouping semantics)")
	}
	if SameValue(nan, NewFloat(1)) || SameValue(NewInt(1), nan) {
		t.Error("NaN should SameValue nothing but NaN")
	}
}

func TestArith(t *testing.T) {
	mustD := func(d Datum, err error) Datum {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	if got := mustD(Add(NewInt(2), NewInt(3))); got.Int() != 5 {
		t.Errorf("2+3 = %v", got)
	}
	if got := mustD(Sub(NewInt(2), NewInt(3))); got.Int() != -1 {
		t.Errorf("2-3 = %v", got)
	}
	if got := mustD(Mul(NewInt(2), NewFloat(1.5))); got.Float() != 3.0 {
		t.Errorf("2*1.5 = %v", got)
	}
	if got := mustD(Div(NewInt(7), NewInt(2))); got.Float() != 3.5 {
		t.Errorf("7/2 = %v", got)
	}
	if got := mustD(Add(NewString("ab"), NewString("cd"))); got.Str() != "abcd" {
		t.Errorf("'ab'+'cd' = %v", got)
	}
	if got := mustD(Neg(NewInt(5))); got.Int() != -5 {
		t.Errorf("-5 = %v", got)
	}
}

func TestArithNullPropagation(t *testing.T) {
	for _, f := range []func(Datum, Datum) (Datum, error){Add, Sub, Mul, Div} {
		d, err := f(Null, NewInt(1))
		if err != nil || !d.IsNull() {
			t.Errorf("op(NULL, 1) = %v, %v; want NULL", d, err)
		}
		d, err = f(NewInt(1), Null)
		if err != nil || !d.IsNull() {
			t.Errorf("op(1, NULL) = %v, %v; want NULL", d, err)
		}
	}
}

func TestArithErrors(t *testing.T) {
	if _, err := Div(NewInt(1), NewInt(0)); err == nil {
		t.Error("division by zero should error")
	}
	if _, err := Add(NewInt(1), NewBool(true)); err == nil {
		t.Error("int + bool should error")
	}
	if _, err := Neg(NewString("x")); err == nil {
		t.Error("negating a string should error")
	}
}

func TestTriBool(t *testing.T) {
	vals := []TriBool{False, True, Unknown}
	for _, a := range vals {
		for _, b := range vals {
			and := a.And(b)
			or := a.Or(b)
			// Kleene logic truth tables.
			switch {
			case a == False || b == False:
				if and != False {
					t.Errorf("%v AND %v = %v", a, b, and)
				}
			case a == Unknown || b == Unknown:
				if and != Unknown {
					t.Errorf("%v AND %v = %v", a, b, and)
				}
			default:
				if and != True {
					t.Errorf("%v AND %v = %v", a, b, and)
				}
			}
			switch {
			case a == True || b == True:
				if or != True {
					t.Errorf("%v OR %v = %v", a, b, or)
				}
			case a == Unknown || b == Unknown:
				if or != Unknown {
					t.Errorf("%v OR %v = %v", a, b, or)
				}
			default:
				if or != False {
					t.Errorf("%v OR %v = %v", a, b, or)
				}
			}
		}
	}
	if True.Not() != False || False.Not() != True || Unknown.Not() != Unknown {
		t.Error("NOT truth table")
	}
	if !True.Accept() || False.Accept() || Unknown.Accept() {
		t.Error("Accept: only TRUE passes a filter")
	}
	if True.LNNVL() || !False.LNNVL() || !Unknown.LNNVL() {
		t.Error("LNNVL: TRUE->false, FALSE/UNKNOWN->true")
	}
}

func TestTriBoolDeMorgan(t *testing.T) {
	// Property: NOT(a AND b) == NOT a OR NOT b in Kleene logic.
	vals := []TriBool{False, True, Unknown}
	for _, a := range vals {
		for _, b := range vals {
			if a.And(b).Not() != a.Not().Or(b.Not()) {
				t.Errorf("De Morgan fails for %v, %v", a, b)
			}
		}
	}
}

func TestTriFromDatum(t *testing.T) {
	if TriFromDatum(Null) != Unknown {
		t.Error("NULL -> UNKNOWN")
	}
	if TriFromDatum(NewBool(true)) != True || TriFromDatum(NewBool(false)) != False {
		t.Error("bool mapping")
	}
	if TriFromDatum(NewInt(3)) != True || TriFromDatum(NewInt(0)) != False {
		t.Error("int mapping")
	}
	if True.Datum().Bool() != true || !Unknown.Datum().IsNull() {
		t.Error("Datum round trip")
	}
}

func TestDatumString(t *testing.T) {
	cases := []struct {
		d    Datum
		want string
	}{
		{Null, "NULL"},
		{NewInt(-3), "-3"},
		{NewString("US"), "'US'"},
		{NewBool(true), "TRUE"},
		{NewFloat(2.5), "2.5"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("String(%v) = %q, want %q", c.d.Kind(), got, c.want)
		}
	}
}

package datum

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// fuzzRow decodes a row from raw fuzz bytes. Each value is one kind byte
// followed by its payload: 8 bytes for INT and FLOAT (the FLOAT bits taken
// verbatim, so -0.0, infinities and NaN payloads all occur), a length byte
// and up to that many bytes for STRING, one byte for BOOL. A truncated
// payload ends the row.
func fuzzRow(data []byte) []Datum {
	var row []Datum
	for len(data) > 0 {
		k := Kind(data[0] % 5)
		data = data[1:]
		switch k {
		case KNull:
			row = append(row, Null)
		case KInt, KFloat:
			if len(data) < 8 {
				return row
			}
			n := binary.BigEndian.Uint64(data)
			data = data[8:]
			if k == KInt {
				row = append(row, NewInt(int64(n)))
			} else {
				row = append(row, NewFloat(math.Float64frombits(n)))
			}
		case KString:
			if len(data) < 1 {
				return row
			}
			l := min(int(data[0]), len(data)-1)
			row = append(row, NewString(string(data[1:1+l])))
			data = data[1+l:]
		case KBool:
			if len(data) < 1 {
				return row
			}
			row = append(row, NewBool(data[0]&1 == 1))
			data = data[1:]
		}
	}
	return row
}

// twin returns another representation of d's value within d's kind: the
// other zero for a float zero, the NaN of the other sign for a NaN (a sign
// flip keeps every NaN a NaN), d itself otherwise.
func twin(d Datum) Datum {
	if d.Kind() != KFloat {
		return d
	}
	f := d.Float()
	switch {
	case f == 0:
		return NewFloat(math.Copysign(0, -math.Copysign(1, f)))
	case math.IsNaN(f):
		return NewFloat(math.Float64frombits(math.Float64bits(f) ^ 1<<63))
	}
	return d
}

func rowKey(r []Datum) []byte {
	var k []byte
	for _, d := range r {
		k = AppendKey(k, d)
	}
	return k
}

// sameRow reports whether two rows are column-wise SameValue, and whether
// every column pair also has the same kind.
func sameRow(a, b []Datum) (same, sameKinds bool) {
	if len(a) != len(b) {
		return false, false
	}
	same, sameKinds = true, true
	for i := range a {
		same = same && SameValue(a[i], b[i])
		sameKinds = sameKinds && a[i].Kind() == b[i].Kind()
	}
	return same, sameKinds
}

// FuzzAppendKey checks that concatenated AppendKey encodings identify rows
// by grouping equality: equal row keys imply SameValue in every column, and
// for same-kind columns SameValue implies equal keys.
func FuzzAppendKey(f *testing.F) {
	str := func(s string) []byte { return append([]byte{byte(KString), byte(len(s))}, s...) }
	flt := func(bits uint64) []byte { return binary.BigEndian.AppendUint64([]byte{byte(KFloat)}, bits) }
	num := func(v int64) []byte { return binary.BigEndian.AppendUint64([]byte{byte(KInt)}, uint64(v)) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	// The separator forgery the old 0x1f-joined keys fell for.
	f.Add(cat(str("x\x1f\x03y"), str("z")), cat(str("x"), str("y\x1f\x03z")))
	f.Add(cat(flt(0), flt(math.Float64bits(math.Copysign(0, -1)))), cat(flt(math.Float64bits(math.Copysign(0, -1))), flt(0)))
	f.Add(flt(0x7ff8_0000_dead_beef), flt(math.Float64bits(math.NaN())))
	// The smallest NaN payload: flipping its low bit would make it +Inf.
	f.Add(flt(0x7ff0_0000_0000_0001), flt(0xfff0_0000_0000_0001))
	f.Add(cat(num(7), str("a")), cat(flt(math.Float64bits(7)), str("a")))
	f.Add(cat([]byte{byte(KNull)}, str("")), cat(str(""), []byte{byte(KNull)}))
	f.Add([]byte{byte(KBool), 1}, num(1))
	f.Fuzz(func(t *testing.T, da, db []byte) {
		a, b := fuzzRow(da), fuzzRow(db)
		ka, kb := rowKey(a), rowKey(b)
		same, sameKinds := sameRow(a, b)
		if bytes.Equal(ka, kb) && !same {
			t.Fatalf("rows %v and %v share key %x but differ", a, b, ka)
		}
		if same && sameKinds && !bytes.Equal(ka, kb) {
			t.Fatalf("rows %v and %v are the same values but key %x vs %x", a, b, ka, kb)
		}
		tw := make([]Datum, len(a))
		for i, d := range a {
			tw[i] = twin(d)
		}
		if kt := rowKey(tw); !bytes.Equal(ka, kt) {
			t.Fatalf("row %v and its twin %v key %x vs %x", a, tw, ka, kt)
		}
	})
}

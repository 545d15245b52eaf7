// Package datum implements the typed values that flow through the query
// processor: SQL NULL, 64-bit integers, floats, and strings, together with
// SQL comparison semantics and three-valued logic.
//
// Dates are represented as strings in 'YYYYMMDD' form (as in the paper's
// example predicate j.start_date > '19980101'), which compare correctly
// under lexicographic string comparison.
package datum

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
)

// Kind identifies the runtime type of a Datum.
type Kind uint8

// The supported value kinds.
const (
	KNull Kind = iota
	KInt
	KFloat
	KString
	KBool
)

func (k Kind) String() string {
	switch k {
	case KNull:
		return "NULL"
	case KInt:
		return "INT"
	case KFloat:
		return "FLOAT"
	case KString:
		return "STRING"
	case KBool:
		return "BOOL"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Datum is a single SQL value. The zero value is SQL NULL.
//
// The layout is 32 bytes on 64-bit platforms: the string header, one
// 8-byte payload word and the kind. Integers and booleans live in n as
// their two's-complement bits, floats as math.Float64bits (so -0.0 and NaN
// payloads round-trip exactly).
type Datum struct {
	s    string
	n    uint64
	kind Kind
}

// Null is the SQL NULL value.
var Null = Datum{}

// NewInt returns an integer datum.
func NewInt(v int64) Datum { return Datum{kind: KInt, n: uint64(v)} }

// NewFloat returns a float datum.
func NewFloat(v float64) Datum { return Datum{kind: KFloat, n: math.Float64bits(v)} }

// NewString returns a string datum.
func NewString(v string) Datum { return Datum{kind: KString, s: v} }

// NewBool returns a boolean datum.
func NewBool(v bool) Datum {
	var n uint64
	if v {
		n = 1
	}
	return Datum{kind: KBool, n: n}
}

// i is the integer payload (INT and BOOL).
func (d Datum) i() int64 { return int64(d.n) }

// f is the float payload (FLOAT).
func (d Datum) f() float64 { return math.Float64frombits(d.n) }

// Kind reports the datum's kind.
func (d Datum) Kind() Kind { return d.kind }

// IsNull reports whether the datum is SQL NULL.
func (d Datum) IsNull() bool { return d.kind == KNull }

// Int returns the integer value. It panics if the datum is not an integer.
func (d Datum) Int() int64 {
	if d.kind != KInt {
		panic(fmt.Sprintf("datum: Int on %s", d.kind))
	}
	return d.i()
}

// Float returns the float value, converting from integer if necessary.
func (d Datum) Float() float64 {
	switch d.kind {
	case KFloat:
		return d.f()
	case KInt:
		return float64(d.i())
	}
	panic(fmt.Sprintf("datum: Float on %s", d.kind))
}

// Str returns the string value. It panics if the datum is not a string.
func (d Datum) Str() string {
	if d.kind != KString {
		panic(fmt.Sprintf("datum: Str on %s", d.kind))
	}
	return d.s
}

// Bool returns the boolean value. It panics if the datum is not a bool.
func (d Datum) Bool() bool {
	if d.kind != KBool {
		panic(fmt.Sprintf("datum: Bool on %s", d.kind))
	}
	return d.n != 0
}

// AsStr returns the string value, or an error naming the actual kind.
// The error-returning twin of Str for values whose kind the caller cannot
// prove statically (anything computed from user SQL).
func (d Datum) AsStr() (string, error) {
	if d.kind != KString {
		return "", fmt.Errorf("datum: want STRING, have %s", d.kind)
	}
	return d.s, nil
}

// String renders the datum as it would appear in SQL text.
func (d Datum) String() string {
	switch d.kind {
	case KNull:
		return "NULL"
	case KInt:
		return strconv.FormatInt(d.i(), 10)
	case KFloat:
		return strconv.FormatFloat(d.f(), 'g', -1, 64)
	case KString:
		return "'" + d.s + "'"
	case KBool:
		if d.n != 0 {
			return "TRUE"
		}
		return "FALSE"
	}
	return "?"
}

// numeric reports whether the datum is an INT or FLOAT.
func (d Datum) numeric() bool { return d.kind == KInt || d.kind == KFloat }

// isNaN reports whether the datum is a FLOAT NaN.
func (d Datum) isNaN() bool { return d.kind == KFloat && math.IsNaN(d.f()) }

// Compare orders two non-null datums: -1 if d < o, 0 if equal, +1 if d > o.
// Numeric kinds compare with each other; otherwise kinds must match.
// Comparing a NULL or incompatible kinds returns an error.
func Compare(d, o Datum) (int, error) {
	if d.IsNull() || o.IsNull() {
		return 0, fmt.Errorf("datum: comparison with NULL has no ordering")
	}
	if d.numeric() && o.numeric() {
		if d.kind == KInt && o.kind == KInt {
			switch {
			case d.i() < o.i():
				return -1, nil
			case d.i() > o.i():
				return 1, nil
			}
			return 0, nil
		}
		a, b := d.Float(), o.Float()
		switch {
		case a < b:
			return -1, nil
		case a > b:
			return 1, nil
		}
		return 0, nil
	}
	if d.kind != o.kind {
		return 0, fmt.Errorf("datum: cannot compare %s with %s", d.kind, o.kind)
	}
	switch d.kind {
	case KString:
		switch {
		case d.s < o.s:
			return -1, nil
		case d.s > o.s:
			return 1, nil
		}
		return 0, nil
	case KBool:
		switch {
		case d.n < o.n:
			return -1, nil
		case d.n > o.n:
			return 1, nil
		}
		return 0, nil
	}
	return 0, fmt.Errorf("datum: cannot compare %s values", d.kind)
}

// MustCompare is Compare but panics on error. Intended for internal callers
// that have already validated kinds (e.g. sorting a typed column).
func MustCompare(d, o Datum) int {
	c, err := Compare(d, o)
	if err != nil {
		panic(err)
	}
	return c
}

// SameValue reports whether two datums are identical values, treating NULL
// as equal to NULL and NaN as equal to NaN (and to nothing else). This is
// the IS NOT DISTINCT FROM / grouping equality, used by GROUP BY, DISTINCT
// and set operations (where NULLs match); AppendKey keys by it.
func SameValue(d, o Datum) bool {
	if d.IsNull() || o.IsNull() {
		return d.IsNull() && o.IsNull()
	}
	if d.numeric() && o.numeric() {
		if dn, on := d.isNaN(), o.isNaN(); dn || on {
			return dn && on
		}
		c, _ := Compare(d, o)
		return c == 0
	}
	if d.kind != o.kind {
		return false
	}
	c, err := Compare(d, o)
	return err == nil && c == 0
}

// Key tags written by AppendKey, one per encoded value.
const (
	keyNull   byte = iota // no payload
	keyInt                // 8-byte big-endian int64: INT and integral FLOAT
	keyFloat              // 8-byte big-endian float bits, NaN canonical
	keyString             // uvarint length, then the bytes
	keyBool               // 1 byte
)

// canonicalNaN is the bit pattern every NaN payload encodes as, so all
// NaNs share one key (SameValue treats NaN as equal only to NaN).
var canonicalNaN = math.Float64bits(math.NaN())

// AppendKey appends the datum's hash key to dst and returns the extended
// slice. The encoding is self-delimiting (one tag per value, a fixed-width
// or length-prefixed payload), so the concatenated keys of a row identify
// the row's values column by column. Two datums get the same key exactly
// when SameValue holds within a kind; an INT and an integral FLOAT share
// one form, so 1 and 1.0 group together, and -0.0 keys as 0.
func AppendKey(dst []byte, d Datum) []byte {
	switch d.kind {
	case KInt:
		return binary.BigEndian.AppendUint64(append(dst, keyInt), d.n)
	case KFloat:
		f := d.f()
		if i := int64(f); f == float64(i) {
			return binary.BigEndian.AppendUint64(append(dst, keyInt), uint64(i))
		}
		bits := d.n
		if math.IsNaN(f) {
			bits = canonicalNaN
		}
		return binary.BigEndian.AppendUint64(append(dst, keyFloat), bits)
	case KString:
		dst = binary.AppendUvarint(append(dst, keyString), uint64(len(d.s)))
		return append(dst, d.s...)
	case KBool:
		return append(dst, keyBool, byte(d.n))
	}
	return append(dst, keyNull)
}

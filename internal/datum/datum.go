// Package datum implements the typed values that flow through the query
// processor: SQL NULL, 64-bit integers, floats, and strings, together with
// SQL comparison semantics and three-valued logic.
//
// Dates are represented as strings in 'YYYYMMDD' form (as in the paper's
// example predicate j.start_date > '19980101'), which compare correctly
// under lexicographic string comparison.
package datum

import (
	"fmt"
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
type Datum struct {
	kind Kind
	i    int64
	f    float64
	s    string
}

// Null is the SQL NULL value.
var Null = Datum{}

// NewInt returns an integer datum.
func NewInt(v int64) Datum { return Datum{kind: KInt, i: v} }

// NewFloat returns a float datum.
func NewFloat(v float64) Datum { return Datum{kind: KFloat, f: v} }

// NewString returns a string datum.
func NewString(v string) Datum { return Datum{kind: KString, s: v} }

// NewBool returns a boolean datum.
func NewBool(v bool) Datum {
	var i int64
	if v {
		i = 1
	}
	return Datum{kind: KBool, i: i}
}

// Kind reports the datum's kind.
func (d Datum) Kind() Kind { return d.kind }

// IsNull reports whether the datum is SQL NULL.
func (d Datum) IsNull() bool { return d.kind == KNull }

// Int returns the integer value. It panics if the datum is not an integer.
func (d Datum) Int() int64 {
	if d.kind != KInt {
		panic(fmt.Sprintf("datum: Int on %s", d.kind))
	}
	return d.i
}

// Float returns the float value, converting from integer if necessary.
func (d Datum) Float() float64 {
	switch d.kind {
	case KFloat:
		return d.f
	case KInt:
		return float64(d.i)
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
	return d.i != 0
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
		return strconv.FormatInt(d.i, 10)
	case KFloat:
		return strconv.FormatFloat(d.f, 'g', -1, 64)
	case KString:
		return "'" + d.s + "'"
	case KBool:
		if d.i != 0 {
			return "TRUE"
		}
		return "FALSE"
	}
	return "?"
}

// numeric reports whether the datum is an INT or FLOAT.
func (d Datum) numeric() bool { return d.kind == KInt || d.kind == KFloat }

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
			case d.i < o.i:
				return -1, nil
			case d.i > o.i:
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
		case d.i < o.i:
			return -1, nil
		case d.i > o.i:
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
// as equal to NULL. This is the IS NOT DISTINCT FROM / grouping equality,
// used by GROUP BY, DISTINCT and set operations (where NULLs match).
func SameValue(d, o Datum) bool {
	if d.IsNull() || o.IsNull() {
		return d.IsNull() && o.IsNull()
	}
	if d.numeric() && o.numeric() {
		c, _ := Compare(d, o)
		return c == 0
	}
	if d.kind != o.kind {
		return false
	}
	c, err := Compare(d, o)
	return err == nil && c == 0
}

// Key returns a string that uniquely identifies the datum's value within its
// kind, suitable for use as a hash map key in joins and aggregation. NULLs
// map to a distinct key so that SameValue semantics hold for grouping.
func (d Datum) Key() string {
	switch d.kind {
	case KNull:
		return "\x00N"
	case KInt:
		return "\x01" + strconv.FormatInt(d.i, 10)
	case KFloat:
		// Normalize integral floats so 1 and 1.0 group together.
		if d.f == float64(int64(d.f)) {
			return "\x01" + strconv.FormatInt(int64(d.f), 10)
		}
		return "\x02" + strconv.FormatFloat(d.f, 'b', -1, 64)
	case KString:
		return "\x03" + d.s
	case KBool:
		return "\x04" + strconv.FormatInt(d.i, 10)
	}
	return "\x05"
}

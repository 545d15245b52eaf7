package datum

import "fmt"

// Add returns d + o with SQL NULL propagation.
func Add(d, o Datum) (Datum, error) { return arith(d, o, '+') }

// Sub returns d - o with SQL NULL propagation.
func Sub(d, o Datum) (Datum, error) { return arith(d, o, '-') }

// Mul returns d * o with SQL NULL propagation.
func Mul(d, o Datum) (Datum, error) { return arith(d, o, '*') }

// Div returns d / o with SQL NULL propagation. Division always produces a
// float; dividing by zero is an error.
func Div(d, o Datum) (Datum, error) {
	if d.IsNull() || o.IsNull() {
		return Null, nil
	}
	if !d.numeric() || !o.numeric() {
		return Null, fmt.Errorf("datum: non-numeric operand to /: %s, %s", d.kind, o.kind)
	}
	den := o.Float()
	if den == 0 {
		return Null, fmt.Errorf("datum: division by zero")
	}
	return NewFloat(d.Float() / den), nil
}

func arith(d, o Datum, op byte) (Datum, error) {
	if d.IsNull() || o.IsNull() {
		return Null, nil
	}
	if op == '+' && d.kind == KString && o.kind == KString {
		return NewString(d.s + o.s), nil
	}
	if !d.numeric() || !o.numeric() {
		return Null, fmt.Errorf("datum: non-numeric operand to %c: %s, %s", op, d.kind, o.kind)
	}
	if d.kind == KInt && o.kind == KInt {
		switch op {
		case '+':
			return NewInt(d.i() + o.i()), nil
		case '-':
			return NewInt(d.i() - o.i()), nil
		case '*':
			return NewInt(d.i() * o.i()), nil
		}
	}
	a, b := d.Float(), o.Float()
	switch op {
	case '+':
		return NewFloat(a + b), nil
	case '-':
		return NewFloat(a - b), nil
	case '*':
		return NewFloat(a * b), nil
	}
	return Null, fmt.Errorf("datum: unknown arithmetic op %c", op)
}

// Neg returns -d with SQL NULL propagation.
func Neg(d Datum) (Datum, error) {
	switch d.kind {
	case KNull:
		return Null, nil
	case KInt:
		return NewInt(-d.i()), nil
	case KFloat:
		return NewFloat(-d.f()), nil
	}
	return Null, fmt.Errorf("datum: cannot negate %s", d.kind)
}

package datum

// TriBool is SQL three-valued logic: TRUE, FALSE, or UNKNOWN (NULL).
type TriBool uint8

// The three truth values.
const (
	False TriBool = iota
	True
	Unknown
)

func (t TriBool) String() string {
	switch t {
	case True:
		return "TRUE"
	case False:
		return "FALSE"
	}
	return "UNKNOWN"
}

// FromBool converts a Go bool to a TriBool.
func FromBool(b bool) TriBool {
	if b {
		return True
	}
	return False
}

// And is three-valued AND.
func (t TriBool) And(o TriBool) TriBool {
	if t == False || o == False {
		return False
	}
	if t == Unknown || o == Unknown {
		return Unknown
	}
	return True
}

// Or is three-valued OR.
func (t TriBool) Or(o TriBool) TriBool {
	if t == True || o == True {
		return True
	}
	if t == Unknown || o == Unknown {
		return Unknown
	}
	return False
}

// Not is three-valued NOT.
func (t TriBool) Not() TriBool {
	switch t {
	case True:
		return False
	case False:
		return True
	}
	return Unknown
}

// Accept reports whether a WHERE/HAVING filter passes: only TRUE accepts.
func (t TriBool) Accept() bool { return t == True }

// LNNVL implements Oracle's LNNVL: TRUE when the condition is FALSE or
// UNKNOWN. It is used by disjunction-into-UNION-ALL expansion to keep
// branches disjoint without changing NULL semantics.
func (t TriBool) LNNVL() bool { return t != True }

// Datum converts the truth value to a Datum (UNKNOWN becomes NULL).
func (t TriBool) Datum() Datum {
	switch t {
	case True:
		return NewBool(true)
	case False:
		return NewBool(false)
	}
	return Null
}

// TriFromDatum interprets a datum as a truth value: NULL is UNKNOWN,
// booleans map directly, and non-zero numbers are TRUE.
func TriFromDatum(d Datum) TriBool {
	switch d.kind {
	case KNull:
		return Unknown
	case KBool, KInt:
		return FromBool(d.n != 0)
	case KFloat:
		return FromBool(d.f() != 0)
	}
	return Unknown
}

// Package sql implements the SQL frontend: lexer, abstract syntax tree and
// recursive-descent parser for the SQL dialect used throughout the paper —
// SELECT with DISTINCT, inline views, ANSI LEFT OUTER JOIN, correlated
// subqueries (IN / NOT IN / EXISTS / NOT EXISTS / ANY / ALL / scalar),
// GROUP BY (including ROLLUP), HAVING, ORDER BY, UNION [ALL], INTERSECT,
// MINUS, and Oracle's ROWNUM.
package sql

import "fmt"

// TokKind classifies a lexical token.
type TokKind int

// Token kinds.
const (
	TokEOF TokKind = iota
	TokIdent
	TokKeyword
	TokNumber
	TokString
	TokSymbol // punctuation and operators: ( ) , . + - * / = <> < <= > >= ||
	TokParam  // bind parameter: ":name" (Text = name) or "?" (Text = "")
)

// Token is one lexical token with its source position.
type Token struct {
	Kind TokKind
	Text string // keywords are upper-cased; identifiers keep original case
	Pos  int    // byte offset in the input
}

func (t Token) String() string {
	switch t.Kind {
	case TokEOF:
		return "end of input"
	case TokString:
		return fmt.Sprintf("'%s'", t.Text)
	case TokParam:
		if t.Text == "" {
			return "?"
		}
		return ":" + t.Text
	default:
		return t.Text
	}
}

// keywords is the set of reserved words, each mapped to itself (keyword
// returns the map's string, so a keyword token allocates nothing).
// Everything else is an identifier.
var keywords = map[string]string{
	"SELECT": "SELECT", "FROM": "FROM", "WHERE": "WHERE", "GROUP": "GROUP", "BY": "BY",
	"HAVING": "HAVING", "ORDER": "ORDER", "DISTINCT": "DISTINCT", "ALL": "ALL", "ANY": "ANY",
	"SOME": "SOME", "IN": "IN", "EXISTS": "EXISTS", "NOT": "NOT", "AND": "AND",
	"OR": "OR", "NULL": "NULL", "IS": "IS", "BETWEEN": "BETWEEN", "LIKE": "LIKE",
	"UNION": "UNION", "INTERSECT": "INTERSECT", "MINUS": "MINUS", "EXCEPT": "EXCEPT",
	"JOIN": "JOIN", "LEFT": "LEFT", "RIGHT": "RIGHT", "FULL": "FULL", "OUTER": "OUTER",
	"INNER": "INNER", "ON": "ON", "AS": "AS", "ASC": "ASC", "DESC": "DESC",
	"ROWNUM": "ROWNUM", "ROLLUP": "ROLLUP", "GROUPING": "GROUPING", "SETS": "SETS",
	"CASE": "CASE", "WHEN": "WHEN", "THEN": "THEN", "ELSE": "ELSE", "END": "END",
	"TRUE": "TRUE", "FALSE": "FALSE",
	// Window functions.
	"OVER": "OVER", "PARTITION": "PARTITION", "ROWS": "ROWS", "RANGE": "RANGE",
	"UNBOUNDED": "UNBOUNDED", "PRECEDING": "PRECEDING", "CURRENT": "CURRENT", "ROW": "ROW",
	// DML.
	"INSERT": "INSERT", "INTO": "INTO", "VALUES": "VALUES", "UPDATE": "UPDATE",
	"SET": "SET", "DELETE": "DELETE",
}

// maxKeywordLen bounds the keywords' length (TestKeywordsFitBuffer).
const maxKeywordLen = 16

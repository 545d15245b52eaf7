package sql

import (
	"fmt"
	"strings"
)

// Lexer turns SQL text into tokens.
type Lexer struct {
	src string
	pos int
}

// NewLexer creates a lexer over src.
func NewLexer(src string) *Lexer { return &Lexer{src: src} }

// Next returns the next token, or an error on malformed input.
func (l *Lexer) Next() (Token, error) {
	l.skipSpaceAndComments()
	if l.pos >= len(l.src) {
		return Token{Kind: TokEOF, Pos: l.pos}, nil
	}
	start := l.pos
	c := l.src[l.pos]
	switch {
	case isIdentStart(c):
		for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
			l.pos++
		}
		text := l.src[start:l.pos]
		if kw, ok := keyword(text); ok {
			return Token{Kind: TokKeyword, Text: kw, Pos: start}, nil
		}
		return Token{Kind: TokIdent, Text: text, Pos: start}, nil

	case c >= '0' && c <= '9':
		sawDot := false
		for l.pos < len(l.src) {
			ch := l.src[l.pos]
			if ch == '.' && !sawDot && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1]) {
				sawDot = true
				l.pos++
				continue
			}
			if !isDigit(ch) {
				break
			}
			l.pos++
		}
		return Token{Kind: TokNumber, Text: l.src[start:l.pos], Pos: start}, nil

	case c == '\'':
		l.pos++
		var b strings.Builder
		for {
			if l.pos >= len(l.src) {
				return Token{}, fmt.Errorf("sql: unterminated string literal at offset %d", start)
			}
			ch := l.src[l.pos]
			if ch == '\'' {
				// '' is an escaped quote.
				if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
					b.WriteByte('\'')
					l.pos += 2
					continue
				}
				l.pos++
				return Token{Kind: TokString, Text: b.String(), Pos: start}, nil
			}
			b.WriteByte(ch)
			l.pos++
		}

	default:
		// Multi-character operators first.
		for _, op := range []string{"<=", ">=", "<>", "!=", "||"} {
			if strings.HasPrefix(l.src[l.pos:], op) {
				l.pos += 2
				text := op
				if op == "!=" {
					text = "<>"
				}
				return Token{Kind: TokSymbol, Text: text, Pos: start}, nil
			}
		}
		switch c {
		case '(', ')', ',', '.', '+', '-', '*', '/', '=', '<', '>':
			l.pos++
			return Token{Kind: TokSymbol, Text: string(c), Pos: start}, nil
		case '?':
			l.pos++
			return Token{Kind: TokParam, Pos: start}, nil
		case ':':
			l.pos++
			if l.pos >= len(l.src) || !isIdentStart(l.src[l.pos]) {
				return Token{}, fmt.Errorf("sql: expected parameter name after ':' at offset %d", start)
			}
			nameStart := l.pos
			for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
				l.pos++
			}
			return Token{Kind: TokParam, Text: l.src[nameStart:l.pos], Pos: start}, nil
		}
		return Token{}, fmt.Errorf("sql: unexpected character %q at offset %d", c, l.pos)
	}
}

func (l *Lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '*':
			end := strings.Index(l.src[l.pos+2:], "*/")
			if end < 0 {
				l.pos = len(l.src)
				return
			}
			l.pos += 2 + end + 2
		default:
			return
		}
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool { return isIdentStart(c) || isDigit(c) || c == '#' || c == '$' }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// keyword returns the upper-case text of the keyword text spells in any
// case, without allocating: the text is upper-cased into a stack buffer
// and looked up in keywords, whose key is the canonical string.
func keyword(text string) (string, bool) {
	var buf [maxKeywordLen]byte
	if len(text) > len(buf) {
		return "", false
	}
	up := buf[:len(text)]
	for i := 0; i < len(text); i++ {
		up[i] = upper(text[i])
	}
	kw, ok := keywords[string(up)]
	return kw, ok
}

// upper upper-cases an ASCII letter and returns any other byte as it is.
func upper(c byte) byte {
	if 'a' <= c && c <= 'z' {
		return c - ('a' - 'A')
	}
	return c
}

// AppendUpper appends s upper-cased, ASCII letters only, to b.
func AppendUpper(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		b = append(b, upper(s[i]))
	}
	return b
}

// LexAll tokenizes the whole input; used by the parser and tests.
func LexAll(src string) ([]Token, error) {
	l := NewLexer(src)
	// About one token per five bytes of SQL text: one allocation for most.
	out := make([]Token, 0, len(src)/5+8)
	for {
		t, err := l.Next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.Kind == TokEOF {
			return out, nil
		}
	}
}

// RownumBound reports whether token i of toks is a numeric literal compared
// against ROWNUM (e.g. "rownum <= 10"): the parser folds such a bound into
// the plan's row limit, so it cannot become a bind parameter and it shapes
// the plan like any keyword does.
func RownumBound(toks []Token, i int) bool {
	isRownum := func(t Token) bool {
		return (t.Kind == TokIdent || t.Kind == TokKeyword) && strings.EqualFold(t.Text, "ROWNUM")
	}
	isCmp := func(t Token) bool {
		switch t.Text {
		case "<", "<=", ">", ">=", "=":
			return t.Kind == TokSymbol
		}
		return false
	}
	if i >= 2 && isCmp(toks[i-1]) && isRownum(toks[i-2]) {
		return true
	}
	if i+2 < len(toks) && isCmp(toks[i+1]) && isRownum(toks[i+2]) {
		return true
	}
	return false
}

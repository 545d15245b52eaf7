package plancache

import (
	"strings"

	"repro/internal/sql"
)

// Normalize canonicalizes SQL text for use as a plan-cache key: comments
// and whitespace runs disappear, identifiers and keywords are upper-cased,
// string literals keep their exact value, and bind-parameter markers are
// preserved (":dept" and a positional "?" stay distinct). Two texts that
// tokenize identically therefore share a cache entry regardless of layout.
// Malformed SQL falls back to the trimmed raw text — it will miss the
// cache, reach the parser, and fail there with a proper error.
func Normalize(src string) string {
	norm, _ := normalize(src, false)
	return norm
}

// Template is Normalize with every number and string literal masked, except
// a ROWNUM bound, which shapes the plan like a keyword (sql.RownumBound):
// texts that differ only in their literals share one template. A masked
// number reads "$n" and a masked string "$s", which no token renders as.
func Template(src string) string {
	_, tmpl := normalize(src, true)
	return tmpl
}

// NormalizeTemplate is Normalize and Template of src from one pass over its
// tokens.
func NormalizeTemplate(src string) (norm, tmpl string) { return normalize(src, true) }

// normalize renders src's tokens as Normalize does, and as Template does
// when template is set ("" otherwise).
func normalize(src string, template bool) (norm, tmpl string) {
	toks, err := sql.LexAll(src)
	if err != nil {
		raw := strings.TrimSpace(src)
		if template {
			tmpl = raw
		}
		return raw, tmpl
	}
	b := make([]byte, 0, len(src))
	var t []byte
	if template {
		t = make([]byte, 0, len(src))
	}
	for i, tok := range toks {
		if tok.Kind == sql.TokEOF {
			break
		}
		if i > 0 {
			b = append(b, ' ')
			if template {
				t = append(t, ' ')
			}
		}
		n := len(b)
		switch tok.Kind {
		case sql.TokIdent:
			b = sql.AppendUpper(b, tok.Text)
		case sql.TokString:
			b = append(b, '\'')
			b = append(b, strings.ReplaceAll(tok.Text, "'", "''")...)
			b = append(b, '\'')
		case sql.TokParam:
			if tok.Text == "" {
				b = append(b, '?')
			} else {
				b = append(b, ':')
				b = sql.AppendUpper(b, tok.Text)
			}
		default:
			b = append(b, tok.Text...)
		}
		if !template {
			continue
		}
		switch {
		case tok.Kind == sql.TokString:
			t = append(t, "$s"...)
		case tok.Kind == sql.TokNumber && !sql.RownumBound(toks, i):
			t = append(t, "$n"...)
		default:
			t = append(t, b[n:]...)
		}
	}
	if template {
		tmpl = string(t)
	}
	return string(b), tmpl
}

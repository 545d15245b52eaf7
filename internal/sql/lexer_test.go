package sql

import "testing"

// TestKeywordsFitBuffer: keyword upper-cases a word into a buffer of
// maxKeywordLen bytes before it looks it up, so no keyword may be longer,
// and a keyword in any case lexes as itself.
func TestKeywordsFitBuffer(t *testing.T) {
	for kw, text := range keywords {
		if len(kw) > maxKeywordLen || kw != text {
			t.Errorf("keyword %q (text %q) does not fit %d bytes or is not its own text", kw, text, maxKeywordLen)
		}
		lower := make([]byte, len(kw))
		for i := range kw {
			lower[i] = kw[i] | 0x20
			if kw[i] == '_' {
				lower[i] = '_'
			}
		}
		toks, err := LexAll(string(lower))
		if err != nil || toks[0].Kind != TokKeyword || toks[0].Text != kw {
			t.Errorf("%q lexes as %+v, %v", lower, toks, err)
		}
	}
}

package workload

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/datum"
	"repro/internal/sql"
)

// ParamQuery is a parameterized variant of a workload query: the numeric
// literals become named bind parameters, so the same plan can execute many
// bind sets — the workload the shared plan cache amortizes.
type ParamQuery struct {
	// SQL is the text with literals replaced by :P1, :P2, ...
	SQL string
	// Names lists the parameter names in order of appearance.
	Names []string
	// Sets are the generated bind sets (Sets[0] reproduces the original
	// literals exactly); each set has one value per name.
	Sets [][]datum.Datum
}

// Literal renders bind set i substituted back into the query text, for
// differential runs that re-parse and re-optimize from scratch.
func (p ParamQuery) Literal(i int) string {
	out := p.SQL
	// Replace highest ordinals first so ":P1" does not clobber ":P12".
	for ord := len(p.Names) - 1; ord >= 0; ord-- {
		out = strings.ReplaceAll(out, ":"+p.Names[ord], literalText(p.Sets[i][ord]))
	}
	return out
}

func literalText(d datum.Datum) string {
	switch d.Kind() {
	case datum.KFloat:
		return strconv.FormatFloat(d.Float(), 'f', -1, 64)
	default:
		return d.String()
	}
}

// Parameterize rewrites the query's numeric literals into named bind
// parameters and generates nSets bind sets. Set 0 carries the original
// values; later sets jitter each value deterministically from seed, so
// different sets select different rows through the same cached plan.
//
// ROWNUM bounds stay literal: the parser folds "rownum <= N" into the
// plan's row limit and cannot late-bind it. Queries with no numeric
// literal outside a ROWNUM bound return ok=false.
func Parameterize(src string, nSets int, seed int64) (ParamQuery, bool) {
	toks, err := sql.LexAll(src)
	if err != nil {
		return ParamQuery{}, false
	}
	// Collect the numeric literals eligible for parameterization.
	type lit struct {
		pos  int // byte offset in src
		text string
	}
	var lits []lit
	for i, t := range toks {
		if t.Kind != sql.TokNumber {
			continue
		}
		if sql.RownumBound(toks, i) {
			continue
		}
		lits = append(lits, lit{pos: t.Pos, text: t.Text})
	}
	if len(lits) == 0 {
		return ParamQuery{}, false
	}

	pq := ParamQuery{SQL: src}
	// Rewrite right-to-left so earlier byte offsets stay valid.
	for i := len(lits) - 1; i >= 0; i-- {
		name := fmt.Sprintf("P%d", i+1)
		l := lits[i]
		pq.SQL = pq.SQL[:l.pos] + ":" + name + pq.SQL[l.pos+len(l.text):]
	}
	for i := range lits {
		pq.Names = append(pq.Names, fmt.Sprintf("P%d", i+1))
	}

	if nSets < 1 {
		nSets = 1
	}
	rng := rand.New(rand.NewSource(seed))
	for s := 0; s < nSets; s++ {
		set := make([]datum.Datum, len(lits))
		for i, l := range lits {
			set[i] = literalDatum(l.text, s, rng)
		}
		pq.Sets = append(pq.Sets, set)
	}
	return pq, true
}

// literalDatum parses one numeric literal and, for sets past the first,
// jitters it while keeping its type (ints stay ints).
func literalDatum(text string, set int, rng *rand.Rand) datum.Datum {
	if i, err := strconv.ParseInt(text, 10, 64); err == nil {
		if set == 0 {
			return datum.NewInt(i)
		}
		// Jitter around the original magnitude so predicates stay sane
		// (a DEPT_ID filter keeps selecting plausible departments).
		span := i/2 + 1
		return datum.NewInt(i - span + rng.Int63n(2*span+1))
	}
	f, err := strconv.ParseFloat(text, 64)
	if err != nil {
		// The lexer only emits well-formed numbers; keep a safe fallback.
		return datum.NewFloat(0)
	}
	if set == 0 {
		return datum.NewFloat(f)
	}
	return datum.NewFloat(f * (0.5 + rng.Float64()))
}

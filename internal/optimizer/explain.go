package optimizer

import (
	"fmt"
	"strings"

	"repro/internal/qtree"
)

// Explain renders the plan as an indented operator tree with cost
// annotations, similar to EXPLAIN PLAN output.
func Explain(p *Plan) string { return ExplainWith(p, nil) }

// ExplainWith is Explain with a per-node annotation hook: annotate's return
// value is appended verbatim to the node's line. A nil annotate renders the
// plain cost tree; package exec uses the hook to attach EXPLAIN ANALYZE
// runtime counters without the optimizer knowing about execution.
func ExplainWith(p *Plan, annotate func(PlanNode) string) string {
	var sb strings.Builder
	explainNode(&sb, p, p.Root, 0, annotate)
	return sb.String()
}

func explainNode(sb *strings.Builder, p *Plan, n PlanNode, depth int, annotate func(PlanNode) string) {
	indent := strings.Repeat("  ", depth)
	c := n.Cost()
	extra := ""
	if annotate != nil {
		extra = annotate(n)
	}
	fmt.Fprintf(sb, "%s%s  (cost=%.1f rows=%.0f)%s\n", indent, describe(n), c.Total, c.Rows, extra)
	// Subplans referenced by this node's expressions.
	NodeExprs(n, func(e qtree.Expr) {
		qtree.WalkExpr(e, func(x qtree.Expr) bool {
			if s, ok := x.(*qtree.Subq); ok {
				if sp, ok := p.Subplans[s]; ok {
					fmt.Fprintf(sb, "%s  SubPlan [%s] (per-exec=%.1f effective-execs=%.0f)\n",
						indent, s.Kind, sp.PerExec, sp.EffectiveExecs)
					explainNode(sb, p, sp.Root, depth+2, annotate)
				}
			}
			return true // a subquery's left operands may hold one too
		})
	})
	for _, ch := range n.Children() {
		explainNode(sb, p, ch, depth+1, annotate)
	}
}

func describe(n PlanNode) string {
	switch v := n.(type) {
	case *SeqScan:
		if len(v.Filter) > 0 {
			return fmt.Sprintf("%s filter=%s", v.Label(), exprList(v.Filter))
		}
		return v.Label()
	case *IndexScan:
		s := v.Label()
		if len(v.EqKeys) > 0 {
			s += fmt.Sprintf(" eq=%s", exprList(v.EqKeys))
		}
		if v.Lo != nil || v.Hi != nil {
			s += " range"
		}
		if len(v.Filter) > 0 {
			s += fmt.Sprintf(" filter=%s", exprList(v.Filter))
		}
		return s
	case *Filter:
		return fmt.Sprintf("%s %s", v.Label(), exprList(v.Preds))
	case *Join:
		s := v.Label()
		if len(v.EqL) > 0 {
			var pairs []string
			for i := range v.EqL {
				pairs = append(pairs, fmt.Sprintf("%s=%s", v.EqL[i], v.EqR[i]))
			}
			s += " on " + strings.Join(pairs, " AND ")
		} else if len(v.On) > 0 {
			s += " on " + exprList(v.On)
		}
		return s
	case *Agg:
		s := v.Label()
		if len(v.GroupBy) > 0 {
			s += " by " + exprList(v.GroupBy)
		}
		return s
	case *Sort:
		return fmt.Sprintf("%s %s", v.Label(), exprList(v.Keys))
	case *Limit:
		return fmt.Sprintf("%s %d", v.Label(), v.N)
	default:
		return n.Label()
	}
}

func exprList(es []qtree.Expr) string {
	parts := make([]string, len(es))
	for i, e := range es {
		parts[i] = e.String()
	}
	return strings.Join(parts, " AND ")
}

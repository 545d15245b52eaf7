// Package transform implements the query transformations of the paper's
// Section 2, both heuristic (imperative) and cost-based:
//
// Heuristic (§2.1): SPJ view merging, subquery unnesting by merging into
// semijoin/antijoin, join elimination, filter predicate move-around, and
// group pruning.
//
// Cost-based (§2.2): subquery unnesting that generates inline (group-by)
// views, group-by and distinct view merging, join predicate pushdown,
// group-by placement (eager aggregation), join factorization, predicate
// pull-up under ROWNUM, set operators into joins, and disjunction into
// UNION ALL.
//
// Each cost-based transformation implements Rule: it discovers the objects
// it applies to in a deterministic order that is stable under Query.Clone,
// so the CBQT driver (package cbqt) can deep-copy the query, re-discover
// the same objects in the copy, and apply a chosen subset — the paper's
// state-space model where a state is a bit (or small integer) per object.
package transform

import (
	"fmt"

	"repro/internal/qtree"
)

// Rule is a cost-based transformation.
type Rule interface {
	// Name identifies the transformation.
	Name() string
	// Find returns the number of objects the rule can apply to in q. The
	// discovery order must be deterministic and stable under Query.Clone.
	Find(q *qtree.Query) int
	// Variants returns how many alternative transformed forms object obj
	// has (at least 1). State 0 always means "not transformed"; state v in
	// 1..Variants selects a variant. Multiple variants model interleaving
	// (e.g. unnest vs unnest+merge, §3.3.1) and juxtaposition (merge vs
	// JPPD, §3.3.2).
	Variants(q *qtree.Query, obj int) int
	// Apply transforms object obj of q into variant (1-based). The query
	// is mutated in place; callers deep-copy first.
	Apply(q *qtree.Query, obj int, variant int) error
}

// HeuristicRule is an imperative transformation applied whenever legal.
type HeuristicRule interface {
	Name() string
	// Apply transforms q in place, returning whether anything changed.
	Apply(q *qtree.Query) (bool, error)
}

// ApplyHeuristics runs the heuristic rules in the paper's sequential order
// to a fixpoint (a transformation can expose new opportunities for earlier
// ones, §3.1).
func ApplyHeuristics(q *qtree.Query) error { return ApplyHeuristicRules(q, Heuristics()) }

// ApplyHeuristicRules runs the given heuristic rules, in order, to a
// fixpoint of at most ten passes.
func ApplyHeuristicRules(q *qtree.Query, rules []HeuristicRule) error {
	for pass := 0; pass < 10; pass++ {
		changed := false
		for _, r := range rules {
			ch, err := r.Apply(q)
			if err != nil {
				return fmt.Errorf("%s: %w", r.Name(), err)
			}
			changed = changed || ch
		}
		if !changed {
			return nil
		}
	}
	return nil
}

// Heuristics returns the imperative rules in their sequential order
// (§3.1): SPJ view merging, join elimination, subquery unnesting (merge
// flavour), group pruning, predicate move-around.
func Heuristics() []HeuristicRule {
	return []HeuristicRule{
		&RedundancyPruning{},
		&SPJViewMerge{},
		&JoinElimination{},
		&UnnestMerge{},
		&GroupPruning{},
		&PredicateMoveAround{},
	}
}

// CostBasedRules returns the cost-based rules in the paper's sequential
// order (§3.1): subquery unnesting, group-by (distinct) view merging
// juxtaposed with join predicate pushdown, set operator into join,
// group-by placement, predicate pullup, join factorization, disjunction
// into union-all.
func CostBasedRules() []Rule {
	return []Rule{
		&UnnestSubquery{},
		&ViewStrategy{},
		&SetOpIntoJoin{},
		&GroupByPlacement{},
		&PredicatePullup{},
		&JoinFactorization{},
		&OrExpansion{},
	}
}

// walkBlocks visits every block of the query in deterministic pre-order:
// the block itself, then set-op children, then view bodies in from order,
// then subquery blocks in expression order.
func walkBlocks(b *qtree.Block, f func(*qtree.Block)) {
	if b == nil {
		return
	}
	f(b)
	if b.Set != nil {
		for _, c := range b.Set.Children {
			walkBlocks(c, f)
		}
	}
	for _, fi := range b.From {
		if fi.View != nil {
			walkBlocks(fi.View, f)
		}
	}
	b.VisitExprs(func(e qtree.Expr) {
		if s, ok := e.(*qtree.Subq); ok {
			walkBlocks(s.Block, f)
		}
	})
}

// Blocks returns every block of q in deterministic order.
func Blocks(q *qtree.Query) []*qtree.Block {
	var out []*qtree.Block
	walkBlocks(q.Root, func(b *qtree.Block) { out = append(out, b) })
	return out
}

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
// Each cost-based transformation implements Rule: Find discovers, once per
// search and on the frozen base tree, the objects the transformation
// applies to, in a deterministic order; each Object carries its variant
// count and a handle that locates it again in any copy-on-write clone of
// that base. The CBQT driver (package cbqt) gives every state its own clone
// and applies the chosen variant of each object through its handle — the
// paper's state-space model where a state is a bit (or small integer) per
// object.
package transform

import (
	"fmt"

	"repro/internal/qtree"
)

// Rule is a cost-based transformation. Rules are stateless: the object set
// Find returns is a value the caller owns, and Apply reads it without
// writing it, so concurrent states may share one set.
type Rule interface {
	// Name identifies the transformation.
	Name() string
	// Find returns the objects the rule can apply to in q, in a
	// deterministic order.
	Find(q *qtree.Query) []Object
	// Apply transforms object o, found by Find on q or on q's copy-on-write
	// base, into variant (1-based). The query is mutated in place; callers
	// clone first. Apply locates o through its handle (Query.Resolve
	// forwards the base block to q's incarnation of it) and re-reads the
	// conjunct or from item there, since an earlier application in the same
	// state may have materialized the block; it does not search the tree.
	// When an earlier application of the same rule reshaped the block,
	// Apply follows it to where the object now lives (disjunction
	// expansion into every UNION ALL branch, join factorization into the
	// factored view) or fails, which makes the state infeasible.
	// Apply re-checks the legality it needs there.
	Apply(q *qtree.Query, o Object, variant int) error
}

// Object is one place a cost-based rule applies. A state assigns each
// object 0 ("not transformed") or a variant in 1..Variants; several
// variants model interleaving (e.g. unnest vs unnest+merge, §3.3.1) and
// juxtaposition (merge vs JPPD, §3.3.2). The remaining fields are the
// handle; which of Where, From and Sub a rule uses is its own business.
type Object struct {
	Variants int
	// Block is the block the object lives in, as Find saw it.
	Block *qtree.Block
	// Where indexes a conjunct: of Block (unnesting, disjunction
	// expansion) or of the view From names (predicate pull-up).
	Where int
	// From names a from item of Block.
	From qtree.FromID
	// Sub is the ID of the subquery block the conjunct at Where holds.
	Sub int

	// Rule-private classification, fixed by Find.
	kind  unnestKind // UnnestSubquery
	table string     // JoinFactorization: the common table
	forms uint8      // two-form rules: which forms are legal (formFirst, formSecond)
}

// The two forms of ViewStrategy (merge, JPPD) and of JoinFactorization
// (strict, lateral). Variant 1 is the first legal form, variant 2 the
// second when both are legal.
const (
	formFirst uint8 = 1 << iota
	formSecond
)

// withForms sets o's legal forms and the variant count they imply.
func (o Object) withForms(first, second bool) Object {
	if first {
		o.forms |= formFirst
		o.Variants++
	}
	if second {
		o.forms |= formSecond
		o.Variants++
	}
	return o
}

// form returns the form variant v of a two-form object selects, or 0 when
// the object has no such variant.
func (o Object) form(v int) uint8 {
	switch {
	case v == 1 && o.forms&formFirst != 0:
		return formFirst
	case v == 1 && o.forms&formSecond != 0, v == 2 && o.forms == formFirst|formSecond:
		return formSecond
	}
	return 0
}

// HeuristicRule is an imperative transformation applied whenever legal.
type HeuristicRule interface {
	Name() string
	// Visit transforms block b of q in place and reports whether anything
	// changed. b is q's current incarnation of the block. A visit reads and
	// writes only b's subtree — b, its views and its subquery blocks — so a
	// visit of a block whose subtree is at a fixpoint changes nothing.
	Visit(q *qtree.Query, b *qtree.Block) (bool, error)
}

// ApplyHeuristics runs the heuristic rules in the paper's sequential order
// to a fixpoint (a transformation can expose new opportunities for earlier
// ones, §3.1).
func ApplyHeuristics(q *qtree.Query) error {
	_, err := ApplyHeuristicRules(q, Heuristics(), false)
	return err
}

// maxHeuristicPasses bounds ApplyHeuristicRules.
const maxHeuristicPasses = 10

// ApplyHeuristicRules runs the given heuristic rules, in order, to a
// fixpoint of at most maxHeuristicPasses passes, and reports whether a
// pass changed nothing within that bound.
//
// skipShared says q is a copy-on-write clone whose base is at a fixpoint of
// the same rules. A block q still shares with that base heads a subtree
// identical to the base's, so every visit of it is a no-op; the passes skip
// it and its subtree, which leaves the result, the pass count and the
// convergence report exactly those of the full passes.
func ApplyHeuristicRules(q *qtree.Query, rules []HeuristicRule, skipShared bool) (converged bool, err error) {
	// Each rule visits the blocks as the tree stood when its pass began; a
	// rule that changed nothing leaves that list valid for the next.
	var list []*qtree.Block
	for pass := 0; pass < maxHeuristicPasses; pass++ {
		changed := false
		for _, r := range rules {
			if list == nil {
				list = passBlocks(q, skipShared)
			}
			ch, err := heuristicPass(q, r, list, skipShared)
			if err != nil {
				return false, fmt.Errorf("%s: %w", r.Name(), err)
			}
			if ch {
				changed, list = true, nil
			}
		}
		if !changed {
			return true, nil
		}
	}
	return false, nil
}

// passBlocks lists q's blocks in pre-order for a heuristic pass: all of
// them, or with skipShared the blocks q owns plus the shared blocks hanging
// off them, whose subtrees are not listed.
func passBlocks(q *qtree.Query, skipShared bool) []*qtree.Block {
	var list []*qtree.Block
	q.Root.Walk(func(b *qtree.Block) bool {
		list = append(list, b)
		return !skipShared || q.Owns(b)
	})
	return list
}

// heuristicPass visits the blocks of list, which passBlocks made, each in
// its current incarnation (Query.Resolve).
//
// With skipShared, it visits a listed shared block's subtree only as far as
// earlier visits of this pass have materialized it. That is the full
// pre-order list minus visits of blocks still shared when their turn comes:
// a shared block's descendants are shared too (the owned region is
// upward-closed), and a shared block's subtree is the base's, which no
// clone mutates, so walking it late yields the list the pass began with.
func heuristicPass(q *qtree.Query, r HeuristicRule, list []*qtree.Block, skipShared bool) (bool, error) {
	changed := false
	var err error
	visit := func(b *qtree.Block) bool {
		if err != nil {
			return false
		}
		var ch bool
		ch, err = r.Visit(q, q.Resolve(b))
		changed = changed || ch
		return err == nil
	}
	for _, b := range list {
		if err != nil {
			break
		}
		if !skipShared || q.Owns(b) {
			visit(b)
			continue
		}
		b.Walk(func(c *qtree.Block) bool {
			return q.Owns(q.Resolve(c)) && visit(c)
		})
	}
	return changed, err
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

// Blocks returns every block of q in deterministic pre-order (Block.Walk):
// the block itself, then set-op children, then view bodies in from order,
// then subquery blocks in expression order.
func Blocks(q *qtree.Query) []*qtree.Block {
	var out []*qtree.Block
	q.Root.Walk(func(b *qtree.Block) bool {
		out = append(out, b)
		return true
	})
	return out
}

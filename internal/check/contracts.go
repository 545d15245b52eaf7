package check

import (
	"fmt"
	"sort"

	"repro/internal/qtree"
)

// Summary captures the externally observable shape of a query: what a
// semantics-preserving transformation must keep fixed. The CBQT driver
// summarizes the query before applying a transformation state and checks
// the mutated tree against it under the rule's registered Contract.
type Summary struct {
	// Arity and Types describe the root output signature.
	Arity int
	Types []Type
	// Params is the bind-parameter name list (ordinal order).
	Params []string
	// Tables is the multiset of base-table occurrences in the whole tree.
	Tables map[string]int
	// OuterJoins counts left/full outer join items in the whole tree: a
	// transformation that loses one has silently converted an outer join
	// to inner (null-sidedness broken).
	OuterJoins int
}

// Summarize computes the contract summary of q. It tolerates malformed
// trees (the full checker reports those separately) and never panics.
func Summarize(q *qtree.Query) *Summary {
	s := &Summary{Tables: map[string]int{}}
	if q == nil || q.Root == nil {
		return s
	}
	// Output signature via a scratch checker; its violations are
	// discarded — the pre-state was verified on entry and the post-state
	// gets its own full check.
	sc := newChecker(q)
	s.Types = sc.checkBlock(q.Root, nil)
	s.Arity = len(s.Types)
	s.Params = append([]string(nil), q.Params...)
	forEachBlock(q.Root, map[*qtree.Block]bool{}, func(b *qtree.Block) {
		for _, f := range b.From {
			if f == nil {
				continue
			}
			if f.Table != nil {
				s.Tables[f.Table.Name]++
			}
			if f.Kind == qtree.JoinLeftOuter || f.Kind == qtree.JoinFullOuter {
				s.OuterJoins++
			}
		}
	})
	return s
}

// forEachBlock visits every block of the tree (views, set-operation
// branches and subquery blocks), guarding against aliased or cyclic
// structures.
func forEachBlock(b *qtree.Block, seen map[*qtree.Block]bool, fn func(*qtree.Block)) {
	if b == nil || seen[b] {
		return
	}
	seen[b] = true
	fn(b)
	for _, f := range b.From {
		if f != nil && f.View != nil {
			forEachBlock(f.View, seen, fn)
		}
	}
	if b.Set != nil {
		for _, c := range b.Set.Children {
			forEachBlock(c, seen, fn)
		}
	}
	b.VisitExprs(func(e qtree.Expr) {
		if sq, ok := e.(*qtree.Subq); ok {
			forEachBlock(sq.Block, seen, fn)
		}
	})
}

// Contract declares the invariants one transformation is allowed to relax.
// The zero value is the strictest contract — output signature, parameter
// list, base-table multiset and outer-join count all preserved — and is
// what unregistered rules get.
type Contract struct {
	// MayAddTables permits duplicating base-table occurrences
	// (disjunction-into-UNION-ALL replicates the block per disjunct).
	MayAddTables bool
	// MayRemoveTables permits dropping base-table occurrences (join
	// factorization shares one scan across UNION ALL branches).
	MayRemoveTables bool
}

// contracts registers per-rule relaxations, keyed by Rule.Name(). Every
// rule not listed here is held to the zero (strictest) Contract.
var contracts = map[string]Contract{
	"disjunction into UNION ALL": {MayAddTables: true},
	"join factorization":         {MayRemoveTables: true},
}

// CheckContract compares the post-transformation state of q against the
// pre-state summary under the named rule's contract, returning one
// ClassContract violation per broken invariant.
func CheckContract(rule string, pre *Summary, q *qtree.Query) Violations {
	if pre == nil {
		return nil
	}
	post := Summarize(q)
	ct := contracts[rule]
	var vs Violations
	add := func(format string, args ...any) {
		vs = append(vs, &Violation{Class: ClassContract, Rule: rule, Detail: fmt.Sprintf(format, args...)})
	}
	if post.Arity != pre.Arity {
		add("changed the output arity from %d to %d", pre.Arity, post.Arity)
	}
	for i := 0; i < len(pre.Types) && i < len(post.Types); i++ {
		if !comparable(pre.Types[i], post.Types[i]) {
			add("changed output column %d from %s to %s", i, pre.Types[i], post.Types[i])
		}
	}
	if !equalStrings(pre.Params, post.Params) {
		add("changed the bind-parameter list from %v to %v", pre.Params, post.Params)
	}
	for _, name := range sortedKeys(pre.Tables) {
		if n := pre.Tables[name]; post.Tables[name] < n && !ct.MayRemoveTables {
			add("dropped %d occurrence(s) of table %s", n-post.Tables[name], name)
		}
	}
	for _, name := range sortedKeys(post.Tables) {
		if n := post.Tables[name]; n > pre.Tables[name] && !ct.MayAddTables {
			add("introduced %d occurrence(s) of table %s", n-pre.Tables[name], name)
		}
	}
	if post.OuterJoins < pre.OuterJoins {
		add("reduced the outer-join count from %d to %d (null-sidedness lost)", pre.OuterJoins, post.OuterJoins)
	}
	return vs
}

// sortedKeys returns the map's keys in sorted order, for deterministic
// violation lists.
func sortedKeys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

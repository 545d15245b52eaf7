package optimizer

import "repro/internal/qtree"

// Live is what the liveness pass records on one operator of an executable
// plan: the output slots some consumer reads. The batch engine fills only
// those; a dead slot is never read and may hold a stale value. A scan also
// splits its live slots for late materialization: First is filled for
// every candidate row before the scan's Filter runs, Late only for the rows
// that pass it.
type Live struct {
	// Slots lists the live output slots: ascending, except that a scan
	// lists First's slots before Late's.
	Slots []int
	first int
}

// First returns the live slots a scan's Filter reads, or all of Slots when
// the scan has no Filter (and on any other operator).
func (l *Live) First() []int { return l.Slots[:l.first] }

// Late returns the live slots a scan fills only for the rows that pass its
// Filter.
func (l *Live) Late() []int { return l.Slots[l.first:] }

// NodeExprs calls f on every expression operator n evaluates itself: scan
// filters and index probe keys and bounds, filter predicates, join keys and
// residual conditions, projections, grouping keys and aggregate arguments,
// window arguments, partitions and orders, and sort keys. It is the one list
// of an operator's expressions: the liveness pass and the executor's
// lateral-cache keys both read it.
func NodeExprs(n PlanNode, f func(qtree.Expr)) {
	each := func(es []qtree.Expr) {
		for _, e := range es {
			f(e)
		}
	}
	switch v := n.(type) {
	case *SeqScan:
		each(v.Filter)
	case *IndexScan:
		each(v.EqKeys)
		if v.Lo != nil {
			f(v.Lo)
		}
		if v.Hi != nil {
			f(v.Hi)
		}
		each(v.Filter)
	case *Filter:
		each(v.Preds)
	case *Project:
		each(v.Exprs)
	case *Join:
		each(v.On)
		each(v.EqL)
		each(v.EqR)
	case *Agg:
		each(v.GroupBy)
		for _, a := range v.Aggs {
			if a.Arg != nil {
				f(a.Arg)
			}
		}
	case *Window:
		for _, w := range v.Funcs {
			if w.Arg != nil {
				f(w.Arg)
			}
			each(w.PartitionBy)
			for _, o := range w.OrderBy {
				f(o.Expr)
			}
		}
	case *Sort:
		each(v.Keys)
	}
}

// MarkLive is the liveness pass. Planner.Optimize runs it once on every
// executable plan, after costing, so it moves no cost and no decision; a
// caller that reshapes a plan runs it again. A column is live when an
// expression of some operator references it (qtree.ExprCols, which also
// descends into subquery blocks), when a subplan reads it as a correlation
// parameter, when it is an output of the plan root or of a subplan root, or
// when it feeds an operator that consumes whole rows: Distinct, every set
// operation input, and Window, which passes its child's rows through. One
// live set serves the whole plan; each operator records the slots of its
// output schema that the set holds.
func MarkLive(plan *Plan) {
	live := make(map[uint64]bool, 64)
	var nodes []PlanNode
	addCols := func(cols []ColID) {
		for _, c := range cols {
			live[colKey(c.From, c.Ord)] = true
		}
	}
	mark := func(c *qtree.Col) { live[colKey(c.From, c.Ord)] = true }
	read := func(e qtree.Expr) { qtree.ExprCols(e, mark) }
	visit := func(root PlanNode) {
		addCols(root.Columns())
		Walk(root, func(n PlanNode) {
			nodes = append(nodes, n)
			NodeExprs(n, read)
			switch v := n.(type) {
			case *Distinct:
				addCols(v.Child.Columns())
			case *Window:
				addCols(v.Child.Columns())
			case *SetNode:
				for _, in := range v.Inputs {
					addCols(in.Columns())
				}
			}
		})
	}
	visit(plan.Root)
	for _, sp := range plan.Subplans {
		visit(sp.Root)
		for _, c := range sp.Correlated {
			live[colKey(c.From, c.Ord)] = true
		}
	}

	// Every record and its slots are cut from one slab each.
	size := 0
	for _, n := range nodes {
		for _, c := range n.Columns() {
			if live[colKey(c.From, c.Ord)] {
				size++
			}
		}
	}
	slab := make([]int, 0, size)
	recs := make([]Live, len(nodes))
	filterReads := map[uint64]bool{}
	markFilter := func(c *qtree.Col) { filterReads[colKey(c.From, c.Ord)] = true }
	for i, n := range nodes {
		// A scan lists the slots its filter reads first; every other
		// operator has no filter, so all its slots count as first.
		filter, _ := scanFilter(n)
		clear(filterReads)
		for _, e := range filter {
			qtree.ExprCols(e, markFilter)
		}
		first := func(k uint64) bool { return len(filter) == 0 || filterReads[k] }
		cols := n.Columns()
		start := len(slab)
		for s, c := range cols {
			if k := colKey(c.From, c.Ord); live[k] && first(k) {
				slab = append(slab, s)
			}
		}
		recs[i].first = len(slab) - start
		for s, c := range cols {
			if k := colKey(c.From, c.Ord); live[k] && !first(k) {
				slab = append(slab, s)
			}
		}
		recs[i].Slots = slab[start:len(slab):len(slab)]
		n.setLive(&recs[i])
	}
}

// colKey packs a column identity into one word, which the liveness pass's
// sets hash much faster than the two-field ColID.
func colKey(from qtree.FromID, ord int) uint64 { return uint64(from)<<32 | uint64(uint32(ord)) }

// scanFilter returns a base-table scan's residual filter; ok is false for
// every other operator.
func scanFilter(n PlanNode) (filter []qtree.Expr, ok bool) {
	switch v := n.(type) {
	case *SeqScan:
		return v.Filter, true
	case *IndexScan:
		return v.Filter, true
	}
	return nil, false
}

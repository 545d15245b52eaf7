package exec

import (
	"fmt"

	"repro/internal/datum"
	"repro/internal/optimizer"
	"repro/internal/qtree"
)

// aggState accumulates one aggregate for one group.
type aggState struct {
	spec     optimizer.AggSpec
	count    int64
	sum      datum.Datum
	min, max datum.Datum
	distinct map[string]bool
	key      []byte // DISTINCT lookup scratch
}

func newAggState(spec optimizer.AggSpec) aggState {
	s := aggState{spec: spec, sum: datum.Null, min: datum.Null, max: datum.Null}
	if spec.Distinct {
		s.distinct = map[string]bool{}
	}
	return s
}

func (s *aggState) add(v datum.Datum) error {
	if s.spec.Star {
		s.count++
		return nil
	}
	if v.IsNull() {
		return nil // aggregates ignore NULLs
	}
	if s.distinct != nil {
		s.key = datum.AppendKey(s.key[:0], v)
		if s.distinct[string(s.key)] {
			return nil
		}
		s.distinct[string(s.key)] = true
	}
	s.count++
	switch s.spec.Op {
	case qtree.AggCount:
	case qtree.AggSum, qtree.AggAvg:
		if s.sum.IsNull() {
			s.sum = v
		} else {
			sum, err := datum.Add(s.sum, v)
			if err != nil {
				return err
			}
			s.sum = sum
		}
	case qtree.AggMin:
		if s.min.IsNull() {
			s.min = v
		} else if c, err := datum.Compare(v, s.min); err != nil {
			// Mixed-kind inputs (e.g. a CASE over different types) are a
			// query error, not a process panic.
			return fmt.Errorf("exec: MIN(%s): %w", s.spec.Arg, err)
		} else if c < 0 {
			s.min = v
		}
	case qtree.AggMax:
		if s.max.IsNull() {
			s.max = v
		} else if c, err := datum.Compare(v, s.max); err != nil {
			return fmt.Errorf("exec: MAX(%s): %w", s.spec.Arg, err)
		} else if c > 0 {
			s.max = v
		}
	}
	return nil
}

func (s *aggState) result() datum.Datum {
	switch s.spec.Op {
	case qtree.AggCount:
		return datum.NewInt(s.count)
	case qtree.AggSum:
		return s.sum
	case qtree.AggAvg:
		if s.count == 0 || s.sum.IsNull() {
			return datum.Null
		}
		return datum.NewFloat(s.sum.Float() / float64(s.count))
	case qtree.AggMin:
		return s.min
	case qtree.AggMax:
		return s.max
	}
	return datum.Null
}

// aggIter is hash aggregation with optional grouping sets (ROLLUP /
// GROUPING SETS are executed as one aggregation per set over the same
// input, with non-member grouping columns null).
type aggIter struct {
	e     *env
	n     *optimizer.Agg
	child iterator
	self  Ctx

	out []Row
	pos int
}

func newAgg(e *env, n *optimizer.Agg, child iterator) *aggIter {
	return &aggIter{e: e, n: n, child: child, self: schemaCtx(n.Child.Columns())}
}

type aggGroup struct {
	gbVals Row
	states []aggState
}

func newAggGroup(gbVals Row, aggs []optimizer.AggSpec) *aggGroup {
	g := &aggGroup{gbVals: gbVals, states: make([]aggState, len(aggs))}
	for i, spec := range aggs {
		g.states[i] = newAggState(spec)
	}
	return g
}

// aggHash is the grouping-set hash-aggregation core shared by the row and
// batch engines: update folds one input row's grouping values and aggregate
// arguments into every grouping set, results assembles the output rows in
// group insertion order (with the scalar-aggregation-over-empty-input row).
// Keeping both engines on one core means their aggregation semantics cannot
// drift.
type aggHash struct {
	n    *optimizer.Agg
	sets [][]int
	// groups[setIdx][key] -> group, keyed by the set's member values
	groups []map[string]*aggGroup
	order  [][]*aggGroup // per set, in insertion order
	key    []byte        // group-key scratch
}

func newAggHash(n *optimizer.Agg) *aggHash {
	sets := n.GroupingSets
	if sets == nil {
		full := make([]int, len(n.GroupBy))
		for i := range full {
			full[i] = i
		}
		sets = [][]int{full}
	}
	h := &aggHash{
		n:      n,
		sets:   sets,
		groups: make([]map[string]*aggGroup, len(sets)),
		order:  make([][]*aggGroup, len(sets)),
	}
	for i := range h.groups {
		h.groups[i] = map[string]*aggGroup{}
	}
	return h
}

// update folds one input row into every grouping set. It retains neither
// gbVals nor argVals, so callers pass reused scratch rows; a group's
// grouping row (the set's members, NULL elsewhere) is built only when the
// group is new.
func (h *aggHash) update(gbVals, argVals Row) error {
	for si, set := range h.sets {
		h.key = h.key[:0]
		for _, gi := range set {
			h.key = datum.AppendKey(h.key, gbVals[gi])
		}
		g, ok := h.groups[si][string(h.key)]
		if !ok {
			masked := make(Row, len(h.n.GroupBy)) // the zero Datum is NULL
			for _, gi := range set {
				masked[gi] = gbVals[gi]
			}
			g = newAggGroup(masked, h.n.Aggs)
			h.groups[si][string(h.key)] = g
			h.order[si] = append(h.order[si], g)
		}
		for i := range g.states {
			if err := g.states[i].add(argVals[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// results returns one row per group, cut from one backing slab.
func (h *aggHash) results() []Row {
	// Scalar aggregation over empty input produces one row.
	if len(h.n.GroupBy) == 0 && len(h.order[0]) == 0 {
		h.order[0] = append(h.order[0], newAggGroup(Row{}, h.n.Aggs))
	}
	groups := 0
	for _, o := range h.order {
		groups += len(o)
	}
	w := len(h.n.GroupBy) + len(h.n.Aggs)
	slab := make([]datum.Datum, groups*w)
	out := make([]Row, 0, groups)
	for _, o := range h.order {
		for _, g := range o {
			row := slab[:w:w]
			slab = slab[w:]
			n := copy(row, g.gbVals)
			for i := range g.states {
				row[n+i] = g.states[i].result()
			}
			out = append(out, row)
		}
	}
	return out
}

func (it *aggIter) Open(outer *Ctx) error {
	if err := it.child.Open(outer); err != nil {
		return err
	}
	it.out = nil
	it.pos = 0
	ctx := &it.self
	ctx.parent = outer
	h := newAggHash(it.n)
	gbVals := make(Row, len(it.n.GroupBy))
	argVals := make(Row, len(it.n.Aggs))
	for {
		r, err := it.child.Next()
		if err != nil {
			return err
		}
		if r == nil {
			break
		}
		ctx.row = r
		// Evaluate grouping columns once.
		for i, g := range it.n.GroupBy {
			d, err := it.e.evalExpr(g, ctx)
			if err != nil {
				return err
			}
			gbVals[i] = d
		}
		// Evaluate aggregate arguments once.
		for i, a := range it.n.Aggs {
			if a.Star || a.Arg == nil {
				continue
			}
			d, err := it.e.evalExpr(a.Arg, ctx)
			if err != nil {
				return err
			}
			argVals[i] = d
		}
		if err := h.update(gbVals, argVals); err != nil {
			return err
		}
	}
	it.out = h.results()
	return nil
}

func (it *aggIter) Next() (Row, error) {
	if it.pos >= len(it.out) {
		return nil, nil
	}
	r := it.out[it.pos]
	it.pos++
	return r, nil
}

func (it *aggIter) Close() error { return it.child.Close() }

// memBytes approximates the materialized group rows.
func (it *aggIter) memBytes() int64 { return rowsBytes(it.out) }

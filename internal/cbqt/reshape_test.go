package cbqt

import (
	"strings"
	"testing"

	"repro/internal/obsv"
	"repro/internal/qtree"
	"repro/internal/testkit"
	"repro/internal/transform"
)

// TestReshapedBlockSearch pins the searches over objects that share one
// block, where applying a later object reshapes the block an earlier
// object's handle names: two disjunctions in one WHERE (expanding the
// second turns the block into a UNION ALL header, and the first is then
// expanded in every branch) and two tables common to both branches of a
// UNION ALL (factoring LOCATIONS out leaves the UNION ALL in the VW_JF
// view, and DEPARTMENTS is then factored out of that view). Every strategy
// must cost every combined state, quarantine nothing, return the
// untransformed query's rows, and make the same decisions on a deep copy
// per state as on copy-on-write clones. The cut-off is off so that every
// state is costed and a state that does not apply shows as infeasible.
func TestReshapedBlockSearch(t *testing.T) {
	db := testkit.NewDB(testkit.SmallSizes(), 7)
	cases := []struct {
		r   transform.Rule
		src string
		// want maps each strategy to its states in enumeration order and
		// then the winner.
		want map[Strategy]string
	}{
		{&transform.OrExpansion{}, `SELECT e.employee_name FROM employees e
 WHERE (e.dept_id = 10 OR e.emp_id = 5) AND (e.emp_id = 3 OR e.dept_id = 20)`,
			map[Strategy]string{
				StrategyExhaustive: "00:costed 10:costed 01:costed 11:costed -> 10:applied",
				StrategyLinear:     "00:costed 10:costed 11:costed -> 10:applied",
				StrategyTwoPass:    "00:costed 11:costed -> 11:applied",
				StrategyIterative:  "00:costed 11:costed 01:costed 10:costed -> 10:applied",
			}},
		{&transform.JoinFactorization{}, `
SELECT d.department_name, l.city, e.employee_name FROM employees e, departments d, locations l
 WHERE e.dept_id = d.dept_id AND d.loc_id = l.loc_id AND e.salary > 9000
UNION ALL
SELECT d.department_name, l.city, s.country_id FROM sales s, departments d, locations l
 WHERE s.dept_id = d.dept_id AND d.loc_id = l.loc_id AND s.amount > 900`,
			map[Strategy]string{
				StrategyExhaustive: "00:costed 10:costed 20:costed 01:costed 11:costed 21:costed 02:costed 12:costed 22:costed -> 11:applied",
				StrategyLinear:     "00:costed 10:costed 20:costed 01:costed 02:costed -> 00:untransformed",
				StrategyTwoPass:    "00:costed 11:costed -> 11:applied",
				StrategyIterative:  "00:costed 20:costed 10:costed 21:costed 22:costed 01:costed 11:costed 12:costed -> 11:applied",
			}},
	}
	t.Cleanup(func() { fullCloneStates = false })
	for _, c := range cases {
		want := run(t, db, qtree.MustBind(c.src, db.Catalog))
		for _, strat := range []Strategy{StrategyExhaustive, StrategyLinear, StrategyTwoPass, StrategyIterative} {
			opts := DefaultOptions()
			opts.Rules = []transform.Rule{c.r}
			opts.Strategy = strat
			opts.Trace = true
			opts.CostCutoff = false
			opts.Parallelism = 1
			var sqls [2]string
			for i, deep := range []bool{false, true} {
				fullCloneStates = deep
				got, res := runCBQT(t, db, c.src, opts)
				fullCloneStates = false
				name := c.r.Name() + " " + strat.String()
				if deep {
					name += " (deep copy per state)"
				}
				if len(res.Stats.TransformErrors) > 0 || len(res.Stats.QuarantinedRules) > 0 {
					t.Errorf("%s: transform errors %v, quarantined %v", name, res.Stats.TransformErrors, res.Stats.QuarantinedRules)
				}
				var trace []string
				for _, ev := range res.Stats.Events {
					switch ev.Ev {
					case obsv.EvState:
						trace = append(trace, ev.State+":"+ev.Outcome)
					case obsv.EvWinner:
						trace = append(trace, "->", ev.State+":"+ev.Outcome)
					}
				}
				if g := strings.Join(trace, " "); g != c.want[strat] {
					t.Errorf("%s: search\ngot:  %s\nwant: %s", name, g, c.want[strat])
				}
				if strings.Join(got, "\n") != strings.Join(want, "\n") {
					t.Errorf("%s: rows differ from the untransformed query\nsql: %s", name, res.Query.SQL())
				}
				sqls[i] = res.Query.SQL()
			}
			if sqls[0] != sqls[1] {
				t.Errorf("%s %s: copy-on-write and deep-copy states chose different queries\ncow:  %s\ndeep: %s", c.r.Name(), strat, sqls[0], sqls[1])
			}
		}
	}
}

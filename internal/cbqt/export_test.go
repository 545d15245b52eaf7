package cbqt

import (
	"repro/internal/qtree"
	"repro/internal/storage"
)

// EachTraceCase calls f with every traceCases entry, for the tests of the
// external cbqt_test package.
func EachTraceCase(f func(name string, db *storage.DB, sql string)) {
	for _, tc := range traceCases() {
		f(tc.name, tc.db, tc.sql)
	}
}

// CompareAdoption calls f, for every rule winner an optimization adopts
// until restore is called, with the adopted tree and the tree re-application
// builds: the winning state and a heuristic re-pass over every block,
// applied to a fresh copy-on-write clone of the pre-rule base.
func CompareAdoption(f func(rule string, adopted, rebuilt *qtree.Query)) (restore func()) {
	onAdopt = func(rs *ruleSearch, w evaluated) {
		rebuilt := rs.q.CloneCOW()
		if err := rs.o.applyState(rebuilt, rs.r, rs.objs, w.s); err != nil {
			panic(err)
		}
		if !rs.o.Opts.SkipHeuristics {
			if _, err := rs.o.applyHeuristics(rebuilt, false); err != nil {
				panic(err)
			}
		}
		f(rs.r.Name(), w.tree, rebuilt)
	}
	return func() { onAdopt = nil }
}

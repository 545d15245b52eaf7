package cbqt

import "repro/internal/storage"

// EachTraceCase calls f with every traceCases entry, for the tests of the
// external cbqt_test package.
func EachTraceCase(f func(name string, db *storage.DB, sql string)) {
	for _, tc := range traceCases() {
		f(tc.name, tc.db, tc.sql)
	}
}

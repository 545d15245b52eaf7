package storage

// VersionLens returns len(Rows), len(begin) and len(ends), so the external
// tests can check that every published version keeps them equal.
func (t *Table) VersionLens() (rows, begin, ends int) {
	return len(t.Rows), len(t.begin), len(t.ends)
}

// TableNames returns the names of db's tables, sorted.
func (db *DB) TableNames() []string { return db.tableNames() }

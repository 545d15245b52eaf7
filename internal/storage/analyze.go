package storage

import (
	"sort"

	"repro/internal/catalog"
	"repro/internal/datum"
)

// histBuckets is the number of equi-height histogram buckets ANALYZE builds
// for each column.
const histBuckets = 16

// Analyze computes optimizer statistics for a table view: row count and,
// per column, distinct-value count, null count, min/max, and an equi-height
// histogram. Only rows visible in the view are counted — dead versions in
// the MVCC heap never skew statistics. It corresponds to collecting
// optimizer statistics in the paper (dynamic sampling is modeled by the
// optimizer's computation cache, §3.4.4).
func Analyze(t *Table) *catalog.TableStats {
	rows := t.VisibleRows()
	stats := &catalog.TableStats{
		RowCount: int64(len(rows)),
		Cols:     make([]catalog.ColStats, len(t.Meta.Cols)),
	}
	for c := range t.Meta.Cols {
		stats.Cols[c] = analyzeColumn(rows, c)
	}
	return stats
}

func analyzeColumn(rows []Row, c int) catalog.ColStats {
	var cs catalog.ColStats
	vals := make([]datum.Datum, 0, len(rows))
	distinct := map[string]struct{}{}
	var key []byte
	for _, r := range rows {
		v := r[c]
		if v.IsNull() {
			cs.NullCount++
			continue
		}
		vals = append(vals, v)
		key = datum.AppendKey(key[:0], v)
		if _, ok := distinct[string(key)]; !ok {
			distinct[string(key)] = struct{}{}
		}
	}
	cs.NDV = int64(len(distinct))
	if len(vals) == 0 {
		return cs
	}
	sort.Slice(vals, func(i, j int) bool {
		return datum.MustCompare(vals[i], vals[j]) < 0
	})
	cs.Min, cs.Max = vals[0], vals[len(vals)-1]
	// Equi-height histogram.
	n := histBuckets
	if n > len(vals) {
		n = len(vals)
	}
	per := len(vals) / n
	rem := len(vals) % n
	pos := 0
	for b := 0; b < n; b++ {
		cnt := per
		if b < rem {
			cnt++
		}
		pos += cnt
		cs.Hist = append(cs.Hist, catalog.HistBucket{
			UpperBound: vals[pos-1],
			Count:      int64(cnt),
		})
	}
	return cs
}

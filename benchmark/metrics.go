package main

import (
	"sort"
	"time"
)

// units names every metric the benchmark can report, with its unit.
// BENCHMARK.json chooses which are gated end-to-end metrics and which are
// per-layer (ungated) ones; benchmark_test.go holds the two in agreement.
var units = map[string]string{
	// Seen by a client of cbqtd.
	"stmt_per_s":         "1/s",
	"stmt_p50_ms":        "ms",
	"stmt_p95_ms":        "ms",
	"stmt_p99_ms":        "ms", // printed from 1000 samples up; never gated
	"read_p50_ms":        "ms",
	"read_p95_ms":        "ms",
	"write_p50_ms":       "ms",
	"write_p95_ms":       "ms",
	"setup_s":            "s",
	"server_peak_rss_mb": "MB",
	// Live counter deltas of the server under test.
	"plancache.hit_ratio": "ratio",
	"server.shed":         "count",
	"storage.conflicts":   "count",
	"storage.recovery_s":  "s",
	// Traced replay: mean time per replayed statement, by layer.
	"server.wire_us_per_stmt": "us",
	"plancache.lookup_us":     "us",
	"sql.parse_us":            "us",
	"qtree.bind_us":           "us",
	"transform.heuristics_us": "us",
	"cbqt.search_ms":          "ms",
	"optimizer.plan_us":       "us",
	"exec.run_ms":             "ms",
	"storage.commit_us":       "us",
	// Traced replay: work counts and the ratios made of them.
	"server.wire_bytes_per_row":           "B",
	"cbqt.states_per_stmt":                "count",
	"cbqt.states_per_s":                   "1/s",
	"cbqt.memo_bytes_per_state":           "B",
	"optimizer.blocks_costed_per_state":   "count",
	"optimizer.costcache_hit_ratio":       "ratio",
	"exec.rows_scanned_per_s":             "1/s",
	"exec.rows_examined_per_row_returned": "ratio",
	"storage.fsyncs_per_commit":           "ratio",
	"storage.wal_bytes_per_user_byte":     "ratio",
	// Traced replay: each layer's share of the statements' wall time, what
	// outside timing cannot reach, and what the spans themselves cost.
	"share.server":         "share",
	"share.plancache":      "share",
	"share.sql":            "share",
	"share.qtree":          "share",
	"share.transform":      "share",
	"share.cbqt":           "share",
	"share.optimizer":      "share",
	"share.exec":           "share",
	"share.storage":        "share",
	"replay_p50_ms":        "ms",
	"unattributed_share":   "share",
	"trace_overhead_share": "share",
}

// exactMetrics are counts of the traced replay that depend on the seed
// alone: two runs of one commit must agree to the last digit, so a later
// change may rest a claim on them.
var exactMetrics = []string{
	"server.wire_bytes_per_row", "cbqt.states_per_stmt", "cbqt.memo_bytes_per_state",
	"optimizer.blocks_costed_per_state", "optimizer.costcache_hit_ratio",
	"exec.rows_examined_per_row_returned", "storage.fsyncs_per_commit", "storage.wal_bytes_per_user_byte",
}

// liveMetrics are what the clients of the live server saw. A workload
// that issues no write (or no read) reports 0 for that split.
func liveMetrics(w *workload, run *liveRun, m map[string]float64) {
	var all, reads, writes []time.Duration
	for _, s := range run.samples {
		all = append(all, s.lat)
		if o := w.op(s.i); o.stmt >= 0 && w.stmts[o.stmt].write {
			writes = append(writes, s.lat)
		} else {
			reads = append(reads, s.lat)
		}
	}
	for _, lats := range [][]time.Duration{all, reads, writes} {
		sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
	}
	m["stmt_per_s"] = float64(len(all)) / run.elapsed.Seconds()
	m["stmt_p50_ms"], m["stmt_p95_ms"] = ms(percentile(all, 0.50)), ms(percentile(all, 0.95))
	if len(all) >= 1000 {
		m["stmt_p99_ms"] = ms(percentile(all, 0.99))
	}
	m["read_p50_ms"], m["read_p95_ms"] = ms(percentile(reads, 0.50)), ms(percentile(reads, 0.95))
	m["write_p50_ms"], m["write_p95_ms"] = ms(percentile(writes, 0.50)), ms(percentile(writes, 0.95))
}

// layerMetrics turns a traced replay into the per-layer metrics. Times
// are means per replayed statement, so a layer the workload bypasses reads
// near zero rather than being left out.
func layerMetrics(res *replayResult, m map[string]float64) {
	n := res.counts
	per := func(d time.Duration) time.Duration { return d / time.Duration(n.stmts) }
	self := res.self
	m["server.wire_us_per_stmt"] = us(per(self[spanWire]))
	m["plancache.lookup_us"] = us(per(self[spanLookup]))
	m["sql.parse_us"] = us(per(self[spanParse]))
	m["qtree.bind_us"] = us(per(self[spanBind]))
	m["transform.heuristics_us"] = us(per(self[probeHeuristic]))
	m["cbqt.search_ms"] = ms(per(self[spanSearch]))
	m["optimizer.plan_us"] = us(per(self[probePlan]))
	m["exec.run_ms"] = ms(per(self[spanRun]))
	m["storage.commit_us"] = us(per(self[probeCommit]))

	m["server.wire_bytes_per_row"] = ratio(float64(n.rowBytes), float64(n.rowsReturned))
	m["cbqt.states_per_stmt"] = ratio(float64(n.states), float64(n.stmts))
	m["cbqt.states_per_s"] = ratio(float64(n.states), self[spanSearch].Seconds())
	m["cbqt.memo_bytes_per_state"] = ratio(float64(n.memoBytes), float64(n.states))
	m["optimizer.blocks_costed_per_state"] = ratio(float64(n.blocks), float64(n.states))
	m["optimizer.costcache_hit_ratio"] = ratio(float64(n.costHits), float64(n.costHits+n.costMisses))
	m["exec.rows_scanned_per_s"] = ratio(float64(n.batchRows), self[spanRun].Seconds())
	m["exec.rows_examined_per_row_returned"] = ratio(float64(n.batchRows), float64(n.rowsReturned))
	m["storage.fsyncs_per_commit"] = ratio(float64(n.fsyncs), float64(n.commits))
	m["storage.wal_bytes_per_user_byte"] = ratio(float64(n.walBytes), float64(n.userBytes))

	for layer, share := range res.layerShares() {
		m["share."+layer] = share
	}
	m["replay_p50_ms"] = ms(res.p50)
	m["unattributed_share"] = ratio(m["stmt_p50_ms"]-ms(res.p50), m["stmt_p50_ms"])
	m["trace_overhead_share"] = ratio(float64(res.tracedWall)-float64(res.plainWall), float64(res.plainWall))
}

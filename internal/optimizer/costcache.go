package optimizer

import (
	"repro/internal/faultinject"
	"repro/internal/qtree"
)

// CostCache is the cost-annotation table of one CBQT optimization (§3.4.2):
// canonical block rendering → cost annotation, shared by every
// transformation state the search evaluates and dropped with the search.
// Annotations are reused only in cost-only mode, because plan nodes are tied
// to a specific query copy's from IDs.
//
// The key is structural, not the block's identity: two states that each
// unnest the same subquery build two distinct but structurally equal views,
// and the second must reuse the first's annotation (Table 1's 12 → 8 blocks).
//
// The table is owned by one search and not safe for concurrent use.
type CostCache struct {
	entries map[string]costAnnotation
	bytes   int64
	hits    int64
	misses  int64

	// Faults, when non-nil, fires the "cache:get" / "cache:put" injection
	// sites on every lookup and store. An injected error degrades the
	// operation (a lookup misses, a store is dropped) — the cache is an
	// accelerator, so faults cost work, never correctness.
	Faults *faultinject.Set
}

type costAnnotation struct {
	cost Cost
	ndvs []float64
}

// entryBytes approximates the resident size of one cache entry.
func entryBytes(key string, ann costAnnotation) int64 {
	return int64(len(key)) + int64(16*len(ann.ndvs)) + 96
}

// The names under which the CBQT driver publishes a finished optimization's
// table counters to its obsv.Registry.
const (
	MetricCacheHits   = "costcache.hits"
	MetricCacheMisses = "costcache.misses"
	// MetricCacheBytes is a gauge: the largest table any optimization held.
	MetricCacheBytes = "costcache.bytes"
)

// NewCostCache creates an empty annotation table.
func NewCostCache() *CostCache {
	return &CostCache{entries: map[string]costAnnotation{}}
}

// lookup renders b's canonical key and returns it with b's annotation, if
// one is stored. The key goes back to put when the caller has planned b.
func (c *CostCache) lookup(keys *qtree.BlockKeyer, b *qtree.Block) (string, costAnnotation, bool) {
	key := keys.Key(b)
	// An injected lookup failure degrades to a miss.
	faulted := c.Faults.Fire("cache:get") != nil
	if ann, ok := c.entries[key]; ok && !faulted {
		c.hits++
		return key, ann, true
	}
	c.misses++
	return key, costAnnotation{}, false
}

func (c *CostCache) put(key string, ann costAnnotation) {
	if err := c.Faults.Fire("cache:put"); err != nil {
		return // injected store failure: drop the annotation
	}
	if old, ok := c.entries[key]; ok {
		c.bytes -= entryBytes(key, old)
	}
	c.entries[key] = ann
	c.bytes += entryBytes(key, ann)
}

// Len reports the number of cached annotations.
func (c *CostCache) Len() int {
	return len(c.entries)
}

// ApproxBytes reports the approximate resident size of the table, for the
// CBQT memory budget.
func (c *CostCache) ApproxBytes() int64 {
	return c.bytes
}

// Counts reports the lookups answered from the table and those that were not.
func (c *CostCache) Counts() (hits, misses int64) {
	return c.hits, c.misses
}

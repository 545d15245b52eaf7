// Package plancache implements the shared plan cache that amortizes the
// cost of CBQT optimization across executions — the reproduction of the
// shared cursor cache the paper leans on to justify the optimizer's expense
// (§3: "the cost of optimization is amortized over many executions").
//
// The cache is sharded for concurrency, bounded with second-chance (clock)
// eviction, and coalesces concurrent misses for the same key through a
// per-key singleflight, so a burst of identical queries triggers exactly
// one optimizer run. Keys combine the normalized query text, the search
// strategy fingerprint, and the catalog's statistics/DDL version: ANALYZE
// or CREATE INDEX bumps the version, which both routes new lookups past
// stale plans and lets the cache sweep them out (counted as
// invalidations, distinct from capacity evictions).
//
// Hit/miss/eviction/invalidation/coalescing counters are published through
// an obsv.Registry under the "plancache." prefix.
package plancache

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/obsv"
)

// Metric names published to the registry.
const (
	MetricHits          = "plancache.hits"
	MetricMisses        = "plancache.misses"
	MetricEvictions     = "plancache.evictions"
	MetricInvalidations = "plancache.invalidations"
	MetricCoalesced     = "plancache.coalesced"
	MetricEntries       = "plancache.entries"
)

// DefaultMaxEntries bounds the cache when the caller passes maxEntries <= 0.
const DefaultMaxEntries = 1024

const numShards = 16

// Key identifies one cached plan.
type Key struct {
	// SQL is the normalized query text (see Normalize).
	SQL string
	// Strategy fingerprints the optimizer configuration (search strategy,
	// budget class, rule modes): plans chosen under different options are
	// distinct cache entries.
	Strategy string
	// Version is the catalog statistics/DDL version the plan was (or will
	// be) optimized under.
	Version int64
}

// String renders the key for diagnostics. The cache itself never builds
// it: shard maps are keyed by the comparable Key, so a lookup allocates
// nothing.
func (k Key) String() string {
	return fmt.Sprintf("v%d|%s|%s", k.Version, k.Strategy, k.SQL)
}

// hash is 32-bit FNV-1a over the key's fields, for shard selection.
func (k Key) hash() uint32 {
	const offset, prime = 2166136261, 16777619
	h := uint32(offset)
	for i := 0; i < len(k.SQL); i++ {
		h = (h ^ uint32(k.SQL[i])) * prime
	}
	h = (h ^ 0xff) * prime // field separator
	for i := 0; i < len(k.Strategy); i++ {
		h = (h ^ uint32(k.Strategy[i])) * prime
	}
	for v := uint64(k.Version); v != 0; v >>= 8 {
		h = (h ^ uint32(v&0xff)) * prime
	}
	return h
}

// entry is one cached plan with its clock-algorithm reference bit.
type entry struct {
	key  Key
	val  any
	slot int  // position in the shard's clock ring
	ref  bool // second-chance bit, set on every hit
}

// call is an in-flight singleflight computation.
type call struct {
	wg  sync.WaitGroup
	val any
	err error
}

type shard struct {
	mu      sync.Mutex
	entries map[Key]*entry
	ring    []*entry // clock ring, fixed capacity; nil slots are free
	hand    int
	calls   map[Key]*call
}

// Cache is a sharded, bounded, concurrency-safe plan cache.
type Cache struct {
	shards   [numShards]shard
	perShard int
	// count is adjusted only while the shard whose entries changed is
	// locked, so it never runs ahead of the true total and Len stays within
	// the bound even while an Invalidate sweep races inserts.
	count atomic.Int64
	// sweepHook, when set (tests only), runs after Invalidate releases each
	// shard's lock, with the shard index.
	sweepHook func(shard int)

	hits          *obsv.Counter
	misses        *obsv.Counter
	evictions     *obsv.Counter
	invalidations *obsv.Counter
	coalesced     *obsv.Counter
	entries       *obsv.Gauge
}

// New creates a cache bounded to maxEntries plans (DefaultMaxEntries when
// <= 0), publishing its counters to reg (which may be nil).
func New(maxEntries int, reg *obsv.Registry) *Cache {
	if maxEntries <= 0 {
		maxEntries = DefaultMaxEntries
	}
	per := (maxEntries + numShards - 1) / numShards
	if per < 1 {
		per = 1
	}
	c := &Cache{
		perShard:      per,
		hits:          reg.Counter(MetricHits),
		misses:        reg.Counter(MetricMisses),
		evictions:     reg.Counter(MetricEvictions),
		invalidations: reg.Counter(MetricInvalidations),
		coalesced:     reg.Counter(MetricCoalesced),
		entries:       reg.Gauge(MetricEntries),
	}
	for i := range c.shards {
		c.shards[i] = shard{
			entries: map[Key]*entry{},
			ring:    make([]*entry, per),
			calls:   map[Key]*call{},
		}
	}
	return c
}

func (c *Cache) shard(k Key) *shard { return &c.shards[k.hash()%numShards] }

// Get returns the cached value for k, if present, marking it recently used.
func (c *Cache) Get(k Key) (any, bool) {
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[k]; ok {
		e.ref = true
		c.hits.Inc()
		return e.val, true
	}
	c.misses.Inc()
	return nil, false
}

// GetOrCompute returns the cached value for k, computing and caching it on
// a miss. Concurrent misses for the same key are coalesced: exactly one
// caller runs compute, the rest block and share its result (shared reports
// whether the value came from the cache or another caller's computation —
// i.e. whether this call avoided an optimizer run). Errors are returned to
// every waiter and are not cached.
func (c *Cache) GetOrCompute(k Key, compute func() (any, error)) (val any, shared bool, err error) {
	s := c.shard(k)

	s.mu.Lock()
	if e, ok := s.entries[k]; ok {
		e.ref = true
		c.hits.Inc()
		s.mu.Unlock()
		return e.val, true, nil
	}
	if cl, ok := s.calls[k]; ok {
		c.coalesced.Inc()
		s.mu.Unlock()
		cl.wg.Wait()
		return cl.val, true, cl.err
	}
	cl := &call{}
	cl.wg.Add(1)
	s.calls[k] = cl
	c.misses.Inc()
	s.mu.Unlock()

	cl.val, cl.err = compute()

	s.mu.Lock()
	delete(s.calls, k)
	if cl.err == nil {
		c.insertLocked(s, &entry{key: k, val: cl.val})
	}
	s.mu.Unlock()
	cl.wg.Done()
	return cl.val, false, cl.err
}

// insertLocked places e into the shard, evicting by second chance when the
// ring is full. Caller holds s.mu.
func (c *Cache) insertLocked(s *shard, e *entry) {
	if old, ok := s.entries[e.key]; ok {
		// A racing recompute of the same key: replace in place.
		old.val, old.ref = e.val, true
		return
	}
	for {
		v := s.ring[s.hand]
		if v == nil {
			break
		}
		if v.ref {
			v.ref = false
			s.hand = (s.hand + 1) % len(s.ring)
			continue
		}
		delete(s.entries, v.key)
		s.ring[s.hand] = nil
		c.evictions.Inc()
		c.count.Add(-1)
		break
	}
	e.slot = s.hand
	s.ring[s.hand] = e
	s.hand = (s.hand + 1) % len(s.ring)
	s.entries[e.key] = e
	c.entries.Set(c.count.Add(1))
}

// Invalidate removes every entry whose key version is below version —
// plans optimized under statistics that ANALYZE or DDL has since replaced —
// and returns how many were dropped. Stale entries that are never swept
// are still harmless (new lookups carry the new version and miss), but
// sweeping frees their slots immediately.
func (c *Cache) Invalidate(version int64) int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		dropped := 0
		for k, e := range s.entries {
			if k.Version < version {
				delete(s.entries, k)
				s.ring[e.slot] = nil
				dropped++
			}
		}
		if dropped > 0 {
			// Give the slots back before the lock does: an insert that
			// refills them must find them already subtracted.
			c.entries.Set(c.count.Add(int64(-dropped)))
		}
		s.mu.Unlock()
		n += dropped
		if c.sweepHook != nil {
			c.sweepHook(i)
		}
	}
	c.invalidations.Add(int64(n))
	return n
}

// Len counts the cached entries across all shards.
func (c *Cache) Len() int { return int(c.count.Load()) }

// Package plancache implements the shared plan cache that amortizes the
// cost of CBQT optimization across executions — the reproduction of the
// shared cursor cache the paper leans on to justify the optimizer's expense
// (§3: "the cost of optimization is amortized over many executions").
//
// The cache is one map under one mutex, bounded with second-chance (clock)
// eviction, and coalesces concurrent misses for the same key through a
// per-key singleflight, so a burst of identical queries triggers exactly
// one optimizer run. Keys combine the normalized query text, the search
// strategy fingerprint, and the catalog's statistics/DDL version: ANALYZE
// or CREATE INDEX bumps the version, which both routes new lookups past
// stale plans and lets the cache sweep them out (counted as
// invalidations, distinct from capacity evictions).
//
// A parameterized statement is cached once per selectivity-bucket vector
// of its binds (Key.Buckets), so binds whose predicates select very
// different shares of a table get the plans they call for. One statement
// holds at most MaxVariants such variants; further vectors share its blind
// variant, the zero vector.
//
// Hit/miss/eviction/invalidation/coalescing counters are published through
// an obsv.Registry under the "plancache." names, or the names NewWith gives
// a second instance (the CBQT decision store is one).
package plancache

import (
	"fmt"
	"math"
	"sync"

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
	// MetricVariants gauges the live bucket-variant entries;
	// MetricBlindFallbacks counts the lookups that fell back to the blind
	// variant because their statement held MaxVariants variants.
	MetricVariants       = "plancache.variants"
	MetricBlindFallbacks = "plancache.blind_fallbacks"
)

// DefaultMaxEntries bounds the cache when the caller passes maxEntries <= 0.
const DefaultMaxEntries = 1024

// MaxBucketed is the number of parameter predicates a key can bucket. A
// statement with more runs its blind variant for every bind set.
const MaxBucketed = 16

// MaxVariants bounds the bucket variants cached for one statement (SQL,
// Strategy and Version).
const MaxVariants = 8

// maxBucket is the bucket of the smallest selectivities, 2^-63 and below.
const maxBucket = 64

// Buckets is the selectivity-bucket vector of one bind set: element i is
// the bucket (BucketOf) of the statement's i-th parameter predicate, and 0
// marks no predicate. The zero vector names the blind variant, planned
// without looking at the binds.
type Buckets [MaxBucketed]int8

// BucketOf is the bucket of an estimated selectivity: 1 - round(log2(sel)),
// so selectivities within a factor of √2 of the same power of two share a
// bucket (1 holds 1 down to 0.71, 2 holds 0.71 to 0.35, and so on). It is
// never 0.
func BucketOf(sel float64) int8 {
	if !(sel > 0) {
		return maxBucket
	}
	b := 1 - math.Round(math.Log2(sel))
	return int8(math.Max(1, math.Min(b, maxBucket)))
}

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
	// Buckets is the bind set's bucket vector: zero for the blind variant,
	// which every statement without parameter predicates uses.
	Buckets Buckets
}

// blind is k's blind variant.
func (k Key) blind() Key {
	k.Buckets = Buckets{}
	return k
}

// isVariant reports whether k names a bucket variant.
func (k Key) isVariant() bool { return k.Buckets != Buckets{} }

// String renders the key for diagnostics. The cache itself never builds
// it: its map is keyed by the comparable Key, so a lookup allocates
// nothing.
func (k Key) String() string {
	if k.isVariant() {
		return fmt.Sprintf("v%d|%s|%v|%s", k.Version, k.Strategy, k.Buckets, k.SQL)
	}
	return fmt.Sprintf("v%d|%s|%s", k.Version, k.Strategy, k.SQL)
}

// entry is one cached plan with its clock-algorithm reference bit.
type entry struct {
	key  Key
	val  any
	slot int  // position in the clock ring
	ref  bool // second-chance bit, set on every hit
}

// call is an in-flight singleflight computation.
type call struct {
	wg  sync.WaitGroup
	val any
	err error
}

// Cache is a bounded, concurrency-safe plan cache. One mutex guards the
// entries, the clock ring and the in-flight computations.
type Cache struct {
	mu      sync.Mutex
	entries map[Key]*entry
	ring    []*entry // clock ring, fixed capacity; nil slots are free
	hand    int
	calls   map[Key]*call
	// variants counts, under each statement's blind key, its cached bucket
	// variants plus those being computed; nvariants is the cached total.
	variants  map[Key]int
	nvariants int

	m Metrics
}

// Metrics are the counters and gauges a cache publishes to; a nil one is
// not published.
type Metrics struct {
	Hits, Misses, Evictions, Invalidations, Coalesced, BlindFallbacks *obsv.Counter
	Entries, Variants                                                 *obsv.Gauge
}

// New creates a cache bounded to maxEntries plans (DefaultMaxEntries when
// <= 0), publishing its counters to reg (which may be nil) under the
// "plancache." names.
func New(maxEntries int, reg *obsv.Registry) *Cache {
	return NewWith(maxEntries, Metrics{
		Hits:           reg.Counter(MetricHits),
		Misses:         reg.Counter(MetricMisses),
		Evictions:      reg.Counter(MetricEvictions),
		Invalidations:  reg.Counter(MetricInvalidations),
		Coalesced:      reg.Counter(MetricCoalesced),
		BlindFallbacks: reg.Counter(MetricBlindFallbacks),
		Entries:        reg.Gauge(MetricEntries),
		Variants:       reg.Gauge(MetricVariants),
	})
}

// NewWith is New for a cache that publishes to m, so a second cache in one
// registry (the CBQT decision store) keeps counters of its own.
func NewWith(maxEntries int, m Metrics) *Cache {
	if maxEntries <= 0 {
		maxEntries = DefaultMaxEntries
	}
	return &Cache{
		entries:  map[Key]*entry{},
		ring:     make([]*entry, maxEntries),
		calls:    map[Key]*call{},
		variants: map[Key]int{},
		m:        m,
	}
}

// Get returns the cached value for k, if present, marking it recently used.
func (c *Cache) Get(k Key) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[k]; ok {
		e.ref = true
		c.m.Hits.Inc()
		return e.val, true
	}
	c.m.Misses.Inc()
	return nil, false
}

// GetOrCompute returns the cached value for k, computing and caching it on
// a miss. Concurrent misses for the same key are coalesced: exactly one
// caller runs compute, the rest block and share its result (shared reports
// whether the value came from the cache or another caller's computation —
// i.e. whether this call avoided an optimizer run). Errors are returned to
// every waiter and are not cached.
func (c *Cache) GetOrCompute(k Key, compute func() (any, error)) (val any, shared bool, err error) {
	return c.GetOrComputeVariant(k, func(Key) (any, error) { return compute() })
}

// GetOrComputeVariant is GetOrCompute for a key that may name a bucket
// variant. A variant that is neither cached nor being computed, of a
// statement that already holds MaxVariants variants, falls back to the
// statement's blind variant (counted in MetricBlindFallbacks). compute
// receives the key it computes: k, or k's blind variant.
func (c *Cache) GetOrComputeVariant(k Key, compute func(Key) (any, error)) (val any, shared bool, err error) {
	c.mu.Lock()
	if e, ok := c.entries[k]; ok {
		e.ref = true
		c.m.Hits.Inc()
		c.mu.Unlock()
		return e.val, true, nil
	}
	if cl, ok := c.calls[k]; ok {
		c.m.Coalesced.Inc()
		c.mu.Unlock()
		cl.wg.Wait()
		return cl.val, true, cl.err
	}
	if k.isVariant() {
		if c.variants[k.blind()] >= MaxVariants {
			c.m.BlindFallbacks.Inc()
			c.mu.Unlock()
			return c.GetOrComputeVariant(k.blind(), compute)
		}
		c.variants[k.blind()]++ // reserved until the computation ends
	}
	cl := &call{}
	cl.wg.Add(1)
	c.calls[k] = cl
	c.m.Misses.Inc()
	c.mu.Unlock()

	cl.val, cl.err = compute(k)

	c.mu.Lock()
	delete(c.calls, k)
	if cl.err != nil || !c.insertLocked(&entry{key: k, val: cl.val}) {
		c.dropVariantLocked(k, false)
	}
	c.mu.Unlock()
	cl.wg.Done()
	return cl.val, false, cl.err
}

// Put caches val under k, replacing what k held, evicting by second chance
// when the cache is full. A bucket variant counts toward its statement's
// live variants but is not refused at MaxVariants: the bound belongs to
// GetOrComputeVariant's lookups.
func (c *Cache) Put(k Key, val any) {
	c.mu.Lock()
	if c.insertLocked(&entry{key: k, val: val}) && k.isVariant() {
		c.variants[k.blind()]++
	}
	c.mu.Unlock()
}

// dropVariantLocked releases k's count in its statement's variant bound,
// if k is a variant; cached says k was a cached entry. Caller holds c.mu.
func (c *Cache) dropVariantLocked(k Key, cached bool) {
	if !k.isVariant() {
		return
	}
	b := k.blind()
	if c.variants[b]--; c.variants[b] <= 0 {
		delete(c.variants, b)
	}
	if cached {
		c.nvariants--
		c.m.Variants.Set(int64(c.nvariants))
	}
}

// insertLocked places e into the ring, evicting by second chance when it
// is full, and reports whether it added an entry. Caller holds c.mu.
func (c *Cache) insertLocked(e *entry) bool {
	if old, ok := c.entries[e.key]; ok {
		// A racing recompute of the same key: replace in place.
		old.val, old.ref = e.val, true
		return false
	}
	for {
		v := c.ring[c.hand]
		if v == nil {
			break
		}
		if v.ref {
			v.ref = false
			c.hand = (c.hand + 1) % len(c.ring)
			continue
		}
		delete(c.entries, v.key)
		c.ring[c.hand] = nil
		c.dropVariantLocked(v.key, true)
		c.m.Evictions.Inc()
		break
	}
	e.slot = c.hand
	c.ring[c.hand] = e
	c.hand = (c.hand + 1) % len(c.ring)
	c.entries[e.key] = e
	c.m.Entries.Set(int64(len(c.entries)))
	if e.key.isVariant() {
		c.nvariants++
		c.m.Variants.Set(int64(c.nvariants))
	}
	return true
}

// Invalidate removes every entry whose key version is below version —
// plans optimized under statistics that ANALYZE or DDL has since replaced,
// every bucket variant included — and returns how many were dropped. Stale entries that are never swept
// are still harmless (new lookups carry the new version and miss), but
// sweeping frees their slots immediately.
func (c *Cache) Invalidate(version int64) int {
	c.mu.Lock()
	n := 0
	for k, e := range c.entries {
		if k.Version < version {
			delete(c.entries, k)
			c.ring[e.slot] = nil
			c.dropVariantLocked(k, true)
			n++
		}
	}
	c.m.Entries.Set(int64(len(c.entries)))
	c.mu.Unlock()
	c.m.Invalidations.Add(int64(n))
	return n
}

// Len counts the cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

package plancache

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/obsv"
)

func TestGetOrComputeHitMiss(t *testing.T) {
	reg := obsv.NewRegistry()
	c := New(64, reg)
	k := Key{SQL: "SELECT 1", Strategy: "auto", Version: 1}

	calls := 0
	v, shared, err := c.GetOrCompute(k, func() (any, error) { calls++; return "plan", nil })
	if err != nil || shared || v != "plan" {
		t.Fatalf("first lookup: v=%v shared=%v err=%v", v, shared, err)
	}
	v, shared, err = c.GetOrCompute(k, func() (any, error) { calls++; return "other", nil })
	if err != nil || !shared || v != "plan" {
		t.Fatalf("second lookup: v=%v shared=%v err=%v", v, shared, err)
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
	if h := reg.CounterValue(MetricHits); h != 1 {
		t.Fatalf("hits = %d, want 1", h)
	}
	if m := reg.CounterValue(MetricMisses); m != 1 {
		t.Fatalf("misses = %d, want 1", m)
	}
}

func TestErrorsAreNotCached(t *testing.T) {
	c := New(64, nil)
	k := Key{SQL: "SELECT broken", Strategy: "auto"}
	_, _, err := c.GetOrCompute(k, func() (any, error) { return nil, fmt.Errorf("boom") })
	if err == nil {
		t.Fatal("expected error")
	}
	if c.Len() != 0 {
		t.Fatalf("error was cached: len=%d", c.Len())
	}
	v, shared, err := c.GetOrCompute(k, func() (any, error) { return "ok", nil })
	if err != nil || shared || v != "ok" {
		t.Fatalf("retry after error: v=%v shared=%v err=%v", v, shared, err)
	}
}

// TestSingleflightCoalescing launches many goroutines missing on the same
// key; exactly one compute must run, the rest share its result.
func TestSingleflightCoalescing(t *testing.T) {
	reg := obsv.NewRegistry()
	c := New(64, reg)
	k := Key{SQL: "SELECT coalesce", Strategy: "auto"}

	var computes atomic.Int64
	gate := make(chan struct{})
	start := make(chan struct{})
	var wg sync.WaitGroup
	const workers = 32
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			v, _, err := c.GetOrCompute(k, func() (any, error) {
				computes.Add(1)
				<-gate // hold the flight open so everyone piles on
				return "plan", nil
			})
			if err != nil || v != "plan" {
				t.Errorf("v=%v err=%v", v, err)
			}
		}()
	}
	close(start)
	// Let the losers reach the waiting path, then release the computation.
	for reg.CounterValue(MetricCoalesced)+reg.CounterValue(MetricHits) < workers-1 {
	}
	close(gate)
	wg.Wait()

	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times under concurrency, want 1", n)
	}
	shared := reg.CounterValue(MetricCoalesced) + reg.CounterValue(MetricHits)
	if shared != workers-1 {
		t.Fatalf("coalesced+hits = %d, want %d", shared, workers-1)
	}
}

func TestBoundedSecondChanceEviction(t *testing.T) {
	reg := obsv.NewRegistry()
	const capacity = 32
	c := New(capacity, reg)
	for i := 0; i < 4*capacity; i++ {
		k := Key{SQL: fmt.Sprintf("SELECT %d", i), Strategy: "auto"}
		if _, _, err := c.GetOrCompute(k, func() (any, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Len(); got > capacity {
		t.Fatalf("cache grew to %d entries, bound is %d", got, capacity)
	}
	if ev := reg.CounterValue(MetricEvictions); ev != 3*capacity {
		t.Fatalf("evictions = %d, want %d", ev, 3*capacity)
	}
}

// TestSecondChancePrefersHotEntries verifies the clock keeps an entry that
// keeps getting hit while cold entries churn through the cache: with two
// slots, the cold slot cycles while the re-referenced hot entry survives.
func TestSecondChancePrefersHotEntries(t *testing.T) {
	c := New(2, nil)
	hot := Key{SQL: "SELECT hot", Strategy: "auto"}
	c.GetOrCompute(hot, func() (any, error) { return "hot", nil })
	for i := 0; i < 64; i++ {
		cold := Key{SQL: fmt.Sprintf("SELECT cold %d", i), Strategy: "auto"}
		c.GetOrCompute(cold, func() (any, error) { return i, nil })
		if _, ok := c.Get(hot); !ok {
			// Get re-arms the ref bit every round, so when the hand sweeps
			// past the hot slot it gets a second chance and the clock evicts
			// the unreferenced cold entry instead.
			t.Fatalf("hot entry evicted after %d cold inserts", i+1)
		}
	}
}

func TestInvalidateDropsStaleVersions(t *testing.T) {
	reg := obsv.NewRegistry()
	c := New(64, reg)
	for i := 0; i < 8; i++ {
		c.GetOrCompute(Key{SQL: fmt.Sprintf("SELECT %d", i), Strategy: "auto", Version: 1},
			func() (any, error) { return i, nil })
	}
	c.GetOrCompute(Key{SQL: "SELECT fresh", Strategy: "auto", Version: 2},
		func() (any, error) { return "fresh", nil })

	if n := c.Invalidate(2); n != 8 {
		t.Fatalf("invalidated %d entries, want 8", n)
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d after invalidation, want 1", c.Len())
	}
	if iv := reg.CounterValue(MetricInvalidations); iv != 8 {
		t.Fatalf("invalidations counter = %d, want 8", iv)
	}
	// The stale key misses; the fresh one still hits.
	if _, ok := c.Get(Key{SQL: "SELECT 0", Strategy: "auto", Version: 1}); ok {
		t.Fatal("stale entry survived invalidation")
	}
	if _, ok := c.Get(Key{SQL: "SELECT fresh", Strategy: "auto", Version: 2}); !ok {
		t.Fatal("fresh entry was dropped")
	}
}

func TestKeyDimensionsAreDistinct(t *testing.T) {
	c := New(64, nil)
	base := Key{SQL: "SELECT 1", Strategy: "auto", Version: 1}
	c.GetOrCompute(base, func() (any, error) { return "a", nil })
	variants := []Key{
		{SQL: "SELECT 2", Strategy: "auto", Version: 1},
		{SQL: "SELECT 1", Strategy: "exhaustive", Version: 1},
		{SQL: "SELECT 1", Strategy: "auto", Version: 2},
	}
	for _, k := range variants {
		if _, ok := c.Get(k); ok {
			t.Fatalf("key %v unexpectedly hit the entry for %v", k, base)
		}
	}
}

func TestNormalize(t *testing.T) {
	cases := []struct{ a, b string }{
		{"select * from emp", "SELECT  *  FROM emp"},
		{"SELECT a FROM t -- trailing comment\n", "select A from T"},
		{"SELECT a FROM t /* c */ WHERE x = :p", "select a from t where x = :P"},
		{"SELECT 'it''s' FROM t", "select   'it''s'   from t"},
	}
	for _, tc := range cases {
		if na, nb := Normalize(tc.a), Normalize(tc.b); na != nb {
			t.Errorf("Normalize(%q) = %q != Normalize(%q) = %q", tc.a, na, tc.b, nb)
		}
	}
	if Normalize("SELECT :a FROM t") == Normalize("SELECT ? FROM t") {
		t.Error("named and positional parameters must not normalize identically")
	}
	if Normalize("SELECT 1 FROM t") == Normalize("SELECT 2 FROM t") {
		t.Error("distinct literals must not normalize identically")
	}
}

// TestTemplate: a template masks number and string literals but keeps a
// ROWNUM bound, and NormalizeTemplate renders both forms from one pass.
func TestTemplate(t *testing.T) {
	a := "select e.x from emp e where e.y > 10 and e.n = 'ab' and rownum <= 5"
	b := "SELECT e.x FROM emp e WHERE e.y > 99 AND e.n = 'zz' AND ROWNUM <= 5"
	if ta, tb := Template(a), Template(b); ta != tb {
		t.Errorf("Template(%q) = %q != Template(%q) = %q", a, ta, b, tb)
	}
	if want := "SELECT E . X FROM EMP E WHERE E . Y > $n AND E . N = $s AND ROWNUM <= 5"; Template(a) != want {
		t.Errorf("Template(%q) = %q, want %q", a, Template(a), want)
	}
	if Template("SELECT x FROM t WHERE ROWNUM <= 5") == Template("SELECT x FROM t WHERE ROWNUM <= 6") {
		t.Error("ROWNUM bounds must not be masked")
	}
	for _, src := range []string{a, b, "SELECT :p, ? FROM t", "SELECT 'unterminated FROM t"} {
		norm, tmpl := NormalizeTemplate(src)
		if norm != Normalize(src) || tmpl != Template(src) {
			t.Errorf("NormalizeTemplate(%q) = %q, %q; want %q, %q", src, norm, tmpl, Normalize(src), Template(src))
		}
	}
}

// TestVariantBound: one statement caches at most MaxVariants bucket
// variants. Further vectors run its blind variant, computed once for the
// blind key and counted as blind fallbacks; a vector already cached still
// hits. Invalidate sweeps every variant.
func TestVariantBound(t *testing.T) {
	reg := obsv.NewRegistry()
	c := New(64, reg)
	base := Key{SQL: "SELECT x FROM t WHERE c > :p", Strategy: "auto", Version: 1}
	variant := func(i int) Key {
		k := base
		k.Buckets[0] = int8(i + 1)
		return k
	}
	var computed []Key
	compute := func(k Key) (any, error) {
		computed = append(computed, k)
		return k.String(), nil
	}
	const vectors = MaxVariants + 5
	for i := 0; i < vectors; i++ {
		v, shared, err := c.GetOrComputeVariant(variant(i), compute)
		if err != nil {
			t.Fatal(err)
		}
		want, wantShared := variant(i).String(), false
		if i >= MaxVariants {
			want, wantShared = base.String(), i > MaxVariants
		}
		if v != want || shared != wantShared {
			t.Fatalf("vector %d: got %v (shared %v), want %v (shared %v)", i, v, shared, want, wantShared)
		}
	}
	if len(computed) != MaxVariants+1 || computed[MaxVariants] != base {
		t.Fatalf("computed %v, want %d variants then the blind key", computed, MaxVariants)
	}
	if n := reg.GaugeValue(MetricVariants); n != MaxVariants {
		t.Fatalf("variants gauge %d, want %d", n, MaxVariants)
	}
	if n := reg.CounterValue(MetricBlindFallbacks); n != vectors-MaxVariants {
		t.Fatalf("blind fallbacks %d, want %d", n, vectors-MaxVariants)
	}
	if v, shared, _ := c.GetOrComputeVariant(variant(0), compute); !shared || v != variant(0).String() {
		t.Fatalf("a cached variant at the bound: %v (shared %v)", v, shared)
	}
	// Another statement has its own bound.
	other := variant(0)
	other.SQL = "SELECT y FROM t WHERE c > :p"
	if v, _, _ := c.GetOrComputeVariant(other, compute); v != other.String() {
		t.Fatalf("a second statement's first variant ran %v", v)
	}

	if n := c.Invalidate(2); n != MaxVariants+2 {
		t.Fatalf("Invalidate dropped %d entries, want %d", n, MaxVariants+2)
	}
	if c.Len() != 0 || reg.GaugeValue(MetricVariants) != 0 || len(c.variants) != 0 {
		t.Fatalf("after Invalidate: %d entries, variants gauge %d, %d statements counted",
			c.Len(), reg.GaugeValue(MetricVariants), len(c.variants))
	}
	next := variant(MaxVariants + 1)
	next.Version = 2
	if v, _, _ := c.GetOrComputeVariant(next, compute); v != next.String() {
		t.Fatalf("after Invalidate a new vector ran %v, want its own variant", v)
	}
}

// TestVariantEvictionReleasesBound: a variant evicted by the clock no
// longer counts against its statement's bound, and a failed computation
// never did.
func TestVariantEvictionReleasesBound(t *testing.T) {
	reg := obsv.NewRegistry()
	c := New(2, reg)
	base := Key{SQL: "SELECT x FROM t WHERE c > :p", Strategy: "auto", Version: 1}
	k := base
	k.Buckets[0] = 1
	if _, _, err := c.GetOrComputeVariant(k, func(Key) (any, error) { return nil, fmt.Errorf("boom") }); err == nil {
		t.Fatal("expected error")
	}
	if len(c.variants) != 0 {
		t.Fatalf("a failed computation holds %v", c.variants)
	}
	for i := 0; i < 3*MaxVariants; i++ {
		k.Buckets[0] = int8(i + 1)
		v, _, err := c.GetOrComputeVariant(k, func(got Key) (any, error) { return got.String(), nil })
		if err != nil || v != k.String() {
			t.Fatalf("vector %d ran %v (err %v): evicted variants still count", i, v, err)
		}
	}
	if n := reg.CounterValue(MetricBlindFallbacks); n != 0 {
		t.Fatalf("%d blind fallbacks with at most 2 variants cached", n)
	}
	if n := reg.GaugeValue(MetricVariants); n != 2 || c.variants[base] != 2 {
		t.Fatalf("variants gauge %d, counted %d, want 2", n, c.variants[base])
	}
}

func TestBucketOf(t *testing.T) {
	for _, tc := range []struct {
		sel  float64
		want int8
	}{
		{1, 1}, {0.98, 1}, {0.75, 1}, {0.7, 2}, {0.5, 2}, {1.0 / 3, 3}, {0.05, 5}, {1e-6, 21}, {0, maxBucket}, {1e-30, maxBucket},
	} {
		if got := BucketOf(tc.sel); got != tc.want {
			t.Errorf("BucketOf(%g) = %d, want %d", tc.sel, got, tc.want)
		}
	}
}

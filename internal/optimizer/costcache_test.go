package optimizer

import (
	"sync"
	"testing"

	"repro/internal/qtree"
)

// stressQueries are multi-block queries whose subquery and view blocks
// populate the annotation cache; several share blocks so concurrent
// optimizers both hit and miss the same keys.
var stressQueries = []string{
	`SELECT e.employee_name FROM employees e
	 WHERE EXISTS (SELECT 1 FROM departments d, locations l
	               WHERE d.loc_id = l.loc_id AND d.dept_id = e.dept_id AND l.country_id = 'US')
	   AND EXISTS (SELECT 1 FROM job_history j, jobs jb
	               WHERE j.job_id = jb.job_id AND j.emp_id = e.emp_id AND j.start_date > '19980101')`,
	`SELECT e.employee_name FROM employees e
	 WHERE e.salary > (SELECT AVG(e2.salary) FROM employees e2 WHERE e2.dept_id = e.dept_id)
	   AND EXISTS (SELECT 1 FROM departments d, locations l
	               WHERE d.loc_id = l.loc_id AND d.dept_id = e.dept_id AND l.country_id = 'US')`,
	`SELECT d.department_name FROM departments d
	 WHERE NOT EXISTS (SELECT 1 FROM job_history j, jobs jb
	                   WHERE j.job_id = jb.job_id AND j.dept_id = d.dept_id AND j.start_date > '20000101')`,
}

// TestCostCacheConcurrentStress drives one shared CostCache from many
// goroutines, each cost-only-optimizing clones of the same queries. Run
// under -race this validates the table's locking; the counter checks
// validate that every block plan is accounted exactly once as either a
// cache hit or an optimization, and that hits never change the cost.
func TestCostCacheConcurrentStress(t *testing.T) {
	db := testDB(t)

	// Reference work and cost per query, measured without a cache.
	type ref struct {
		q      *qtree.Query
		blocks int
		cost   float64
	}
	refs := make([]ref, len(stressQueries))
	for i, src := range stressQueries {
		q, err := qtree.BindSQL(src, db.Catalog)
		if err != nil {
			t.Fatal(err)
		}
		p := New(db.Catalog)
		p.CostOnly = true
		plan, err := p.Optimize(q)
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = ref{q: q, blocks: p.Counters.BlocksOptimized, cost: plan.Cost.Total}
	}

	cache := NewCostCache()
	const goroutines = 32
	const iters = 10

	var wg sync.WaitGroup
	errs := make(chan string, goroutines*iters)
	var mu sync.Mutex
	totalHits, totalBlocks := 0, 0
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				r := refs[(g+it)%len(refs)]
				clone, _ := r.q.Clone()
				p := New(db.Catalog)
				p.CostOnly = true
				p.Cache = cache
				plan, err := p.Optimize(clone)
				if err != nil {
					errs <- err.Error()
					return
				}
				if plan.Cost.Total != r.cost {
					errs <- "cached cost diverged from uncached cost"
					return
				}
				// Every planned select block is exactly one hit or one
				// optimization; a hit on an outer block skips its nested
				// blocks entirely, so the sum never exceeds the uncached
				// block count and never reaches zero.
				got := p.Counters.CacheHits + p.Counters.BlocksOptimized
				if got < 1 || got > r.blocks {
					errs <- "hit/miss counters inconsistent"
					return
				}
				mu.Lock()
				totalHits += p.Counters.CacheHits
				totalBlocks += p.Counters.BlocksOptimized
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}

	if totalHits == 0 {
		t.Error("no cache hits across concurrent optimizers; sharing is broken")
	}
	if cache.Len() == 0 {
		t.Error("cache stayed empty")
	}
	// The cache can never hold more annotations than blocks were optimized
	// (duplicated concurrent misses overwrite the same key).
	if cache.Len() > totalBlocks {
		t.Errorf("cache holds %d annotations but only %d blocks were optimized", cache.Len(), totalBlocks)
	}
}

// TestCostCacheCounts checks the table's own accounting: every lookup is one
// hit or one miss, a re-stored key replaces its annotation without growing
// the entry count, and ApproxBytes is the sum of the resident entries.
func TestCostCacheCounts(t *testing.T) {
	db := testDB(t)
	q, err := qtree.BindSQL(`SELECT e.emp_id FROM employees e WHERE e.salary > 100`, db.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCostCache()
	key, _, ok := c.lookup(q.BlockKeyer(), q.Root)
	if ok {
		t.Fatal("empty table reported a hit")
	}
	if want := q.CanonicalKey(q.Root); key != want {
		t.Fatalf("table key %q, want the canonical key %q", key, want)
	}
	c.put(key, costAnnotation{cost: Cost{Total: 1}})
	c.put(key, costAnnotation{cost: Cost{Total: 2}, ndvs: []float64{3}})
	_, ann, ok := c.lookup(q.BlockKeyer(), q.Root)
	if !ok || ann.cost.Total != 2 {
		t.Errorf("lookup after re-store = %+v, %v; want the second annotation", ann, ok)
	}
	if hits, misses := c.Counts(); hits != 1 || misses != 1 {
		t.Errorf("counts after 1 miss + 1 hit: hits %d, misses %d", hits, misses)
	}
	if c.Len() != 1 {
		t.Errorf("table holds %d entries after storing one key twice", c.Len())
	}
	if got, want := c.ApproxBytes(), entryBytes(key, ann); got != want {
		t.Errorf("ApproxBytes %d, want %d (the one resident entry)", got, want)
	}
}

package cbqt_test

import (
	"fmt"
	"math"
	"math/rand"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/cbqt"
	"repro/internal/datum"
	"repro/internal/exec"
	"repro/internal/faultinject"
	"repro/internal/obsv"
	"repro/internal/plancache"
	"repro/internal/qtree"
	"repro/internal/storage"
	"repro/internal/testkit"
	"repro/internal/workload"
)

// adhocClass is one generator of one-shot texts: a Table 2 family size or
// a CBQT-relevant workload class.
type adhocClass struct {
	name string
	gen  func(rng *rand.Rand) string
}

// adhocClasses are the fifteen generators of the adhoc_cbqt benchmark
// workload: the four Table 2 family sizes and workload.RelevantClasses.
func adhocClasses() []adhocClass {
	var out []adhocClass
	for _, k := range []int{4, 6, 8, 10} {
		text := bench.Table2FamilyQuery(k)
		out = append(out, adhocClass{fmt.Sprintf("table2family(%d)", k), func(*rand.Rand) string { return text }})
	}
	s := testkit.SmallSizes()
	cfg := workload.DefaultConfig(1, 0, s.Employees, s.Departments, s.Jobs)
	for _, class := range workload.RelevantClasses {
		out = append(out, adhocClass{string(class), func(rng *rand.Rand) string {
			return workload.GenerateClass(rng.Int63(), 1, cfg, class)[0].SQL
		}})
	}
	return out
}

// firstOfMonth matches the generators' date literals, all 'YYYYMM01'.
var firstOfMonth = regexp.MustCompile(`'(\d{6})01'`)

// jitterLiterals makes a one-shot text the way the adhoc_cbqt workload
// does: every numeric literal outside a ROWNUM bound moves up by a seeded
// amount under a quarter of its size, every date literal to a seeded day
// of its month.
func jitterLiterals(text string, rng *rand.Rand) string {
	text = firstOfMonth.ReplaceAllStringFunc(text, func(lit string) string {
		return fmt.Sprintf("%s%02d'", lit[:7], 1+rng.Intn(28))
	})
	pq, ok := workload.Parameterize(text, 1, 1)
	if !ok {
		return text
	}
	out := pq.SQL
	for ord := len(pq.Names) - 1; ord >= 0; ord-- {
		lit := pq.Sets[0][ord]
		var repl string
		if lit.Kind() == datum.KInt {
			repl = fmt.Sprint(lit.Int() + rng.Int63n(lit.Int()/4+3))
		} else {
			repl = fmt.Sprintf("%.3f", lit.Float()*(1+rng.Float64()/4))
		}
		out = strings.ReplaceAll(out, ":"+pq.Names[ord], repl)
	}
	return out
}

// sortedRows runs plan and renders its rows, sorted.
func sortedRows(t *testing.T, db *storage.DB, res *cbqt.Result) []string {
	t.Helper()
	er, err := exec.Run(db, res.Plan)
	if err != nil {
		t.Fatalf("exec: %v\ntransformed: %s", err, res.Query.SQL())
	}
	out := make([]string, len(er.Rows))
	for i, r := range er.Rows {
		parts := make([]string, len(r))
		for j, d := range r {
			parts[j] = d.String()
		}
		out[i] = strings.Join(parts, "|")
	}
	sort.Strings(out)
	return out
}

// regretPerClass is the number of one-shot texts TestDecisionReuseRegret
// optimizes per generator.
const regretPerClass = 100

// addend matches the Table 2 family's "col + k" addends, whose literals no
// estimate reads (the comparisons they sit in have no bare column side).
var addend = regexp.MustCompile(`\+ \d+ `)

// wideAddends is a Table 2 family text whose addends range over six orders
// of magnitude: texts that share a decision key although their literals
// differ by any amount.
func wideAddends(k int) adhocClass {
	text := bench.Table2FamilyQuery(k)
	return adhocClass{fmt.Sprintf("family(%d) wide +k", k), func(rng *rand.Rand) string {
		return addend.ReplaceAllStringFunc(text, func(string) string { return fmt.Sprintf("+ %d ", rng.Intn(1_000_000)) })
	}}
}

// TestDecisionReuseRegret measures what reusing decisions across the
// literal texts of one template costs in plan quality. It optimizes
// seeded, jittered adhoc_cbqt-style texts on small data twice: once with a
// full search, once through one decision store shared by all of them. For
// every text whose optimization reused a stored decision it divides the
// final plan's cost by the full search's, and requires, per generator, at
// least 95% of those ratios at most 1.05; the table it logs (fraction below
// and at exactly 1.0, fraction above 1.05, worst ratio) is the one
// EXPERIMENTS.md records. Every reused plan must return the full search's
// rows. Besides the adhoc_cbqt generators, two Table 2 family sizes draw
// their addend literals, which the key masks but does not bucket, from a
// wide range.
func TestDecisionReuseRegret(t *testing.T) {
	if testing.Short() {
		t.Skip("optimizes and runs 3 000 statements")
	}
	db := testkit.NewDB(testkit.SmallSizes(), 7)
	reg := obsv.NewRegistry()
	store := cbqt.NewDecisionStore(0, reg)
	opts := cbqt.DefaultOptions()
	opts.Check = false // as cbqtd runs it; the fault and check tests arm it
	rng := rand.New(rand.NewSource(47))
	classes := append(adhocClasses(), wideAddends(4), wideAddends(8))

	type tally struct {
		texts, reused, below, exact, above int
		worst                              float64
	}
	tallies := make([]tally, len(classes))
	for i := 0; i < regretPerClass*len(classes); i++ {
		c := i % len(classes)
		src := jitterLiterals(classes[c].gen(rng), rng)
		full, err := (&cbqt.Optimizer{Cat: db.Catalog, Opts: opts}).Optimize(qtree.MustBind(src, db.Catalog))
		if err != nil {
			t.Fatalf("full search: %v\nsql: %s", err, src)
		}
		q := qtree.MustBind(src, db.Catalog)
		o := &cbqt.Optimizer{Cat: db.Catalog, Opts: opts, Decisions: store,
			DecisionKey: cbqt.NewDecisionKey(plancache.Template(src), q, "test", nil)}
		got, err := o.Optimize(q)
		if err != nil {
			t.Fatalf("reuse: %v\nsql: %s", err, src)
		}
		tl := &tallies[c]
		tl.texts++
		if got.Stats.ReusedRules == 0 {
			continue
		}
		tl.reused++
		ratio := got.Plan.Cost.Total / full.Plan.Cost.Total
		switch {
		case ratio < 1:
			tl.below++
		case ratio == 1:
			tl.exact++
		case ratio > 1.05:
			tl.above++
		}
		tl.worst = math.Max(tl.worst, ratio)
		if ratio != 1 || got.Query.SQL() != full.Query.SQL() {
			if want, have := sortedRows(t, db, full), sortedRows(t, db, got); strings.Join(want, "\n") != strings.Join(have, "\n") {
				t.Errorf("%s: the reused plan returns %d rows, the full search's %d\nsql: %s\nreused: %s\nfull: %s",
					classes[c].name, len(have), len(want), src, got.Query.SQL(), full.Query.SQL())
			}
		}
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "%-20s %6s %6s %8s %8s %8s %8s\n", "class", "texts", "reused", "<1.0", "=1.0", ">1.05", "worst")
	for c, tl := range tallies {
		frac := func(n int) float64 { return float64(n) / math.Max(float64(tl.reused), 1) }
		fmt.Fprintf(&sb, "%-20s %6d %6d %8.3f %8.3f %8.3f %8.3f\n", classes[c].name, tl.texts, tl.reused,
			frac(tl.below), frac(tl.exact), frac(tl.above), tl.worst)
		if frac(tl.above) > 0.05 {
			t.Errorf("%s: %.1f%% of reused texts cost above 1.05x the full search's winner", classes[c].name, 100*frac(tl.above))
		}
	}
	snap := reg.Snapshot()
	fmt.Fprintf(&sb, "store: %d entries, %d hits, %d misses, %d fallbacks",
		store.Len(), snap.Counters[cbqt.MetricDecisionHits], snap.Counters[cbqt.MetricDecisionMisses],
		snap.Counters[cbqt.MetricDecisionFallbacks])
	t.Log("\n" + sb.String())
}

// TestDecisionKeyCoversEstimatedLiterals: texts that differ only in
// literals no estimate reads share a key, a bucketed literal that moves to
// another bucket changes it, and a text that compares a column with a
// literal outside its bucketed WHERE conjuncts gets no key at all.
func TestDecisionKeyCoversEstimatedLiterals(t *testing.T) {
	db := testkit.NewDB(testkit.SmallSizes(), 7)
	key := func(src string) plancache.Key {
		return cbqt.NewDecisionKey(plancache.Template(src), qtree.MustBind(src, db.Catalog), "test", nil)
	}
	base := bench.Table2FamilyQuery(4)
	k := key(base)
	if k == (plancache.Key{}) {
		t.Fatalf("no key for the Table 2 family text")
	}
	if wide := key(addend.ReplaceAllString(base, "+ 987654 ")); wide != k {
		t.Errorf("addends no estimate reads change the key:\n%v\n%v", wide, k)
	}
	if moved := key(strings.Replace(base, "s0.amount > 400", "s0.amount > 40000", 1)); moved == k || moved == (plancache.Key{}) {
		t.Errorf("a bucketed literal moved far gives key %v, want another non-zero key than %v", moved, k)
	}
	for _, src := range []string{
		"SELECT e.emp_id FROM employees e WHERE e.salary + 100 > e.emp_id AND e.dept_id = 3",
		"SELECT e.emp_id, e.salary * 12 s FROM employees e WHERE e.employee_name LIKE 'A%' AND e.dept_id IN (1, 2)",
	} {
		if key(src) == (plancache.Key{}) {
			t.Errorf("no key, though every literal an estimate reads is bucketed: %s", src)
		}
	}
	for _, src := range []string{
		"SELECT e.emp_id FROM employees e WHERE e.salary > 5000 OR e.dept_id = 3",
		"SELECT e.emp_id FROM employees e WHERE NOT (e.salary > 5000)",
		"SELECT e.emp_id FROM employees e LEFT JOIN departments d ON d.dept_id = e.dept_id AND d.budget > 1000",
		"SELECT e.dept_id, COUNT(*) c FROM employees e GROUP BY e.dept_id HAVING e.dept_id > 3",
		"SELECT v.d FROM (SELECT e.dept_id d FROM employees e) v WHERE v.d = 3",
		"SELECT e.emp_id, CASE WHEN e.salary > 5 THEN 1 ELSE 0 END c FROM employees e",
	} {
		if k := key(src); k != (plancache.Key{}) {
			t.Errorf("key %v for a text whose estimated literal is not bucketed: %s", k, src)
		}
	}
}

// optimizeThrough optimizes src through store, keyed by NewDecisionKey.
func optimizeThrough(t *testing.T, db *storage.DB, store *cbqt.DecisionStore, opts cbqt.Options, src string) *cbqt.Result {
	t.Helper()
	q := qtree.MustBind(src, db.Catalog)
	o := &cbqt.Optimizer{Cat: db.Catalog, Opts: opts, Decisions: store,
		DecisionKey: cbqt.NewDecisionKey(plancache.Template(src), q, "test", nil)}
	res, err := o.Optimize(q)
	if err != nil {
		t.Fatalf("%v\nsql: %s", err, src)
	}
	return res
}

// TestDecisionStoreReuse: a full search records its decisions; the next
// text of the key costs the stored state and the untransformed one, under
// the checker, traces its rule with strategy "reuse" and plans the same
// cost. A search that faulted or degraded records nothing, and a rule that
// finds another object count than the entry holds searches in full.
func TestDecisionStoreReuse(t *testing.T) {
	db := testkit.NewDB(testkit.SmallSizes(), 7)
	src := bench.Table2FamilyQuery(4)
	opts := cbqt.DefaultOptions()
	opts.Check, opts.Trace = true, true

	reg := obsv.NewRegistry()
	store := cbqt.NewDecisionStore(0, reg)
	first := optimizeThrough(t, db, store, opts, src)
	if first.Stats.ReusedRules != 0 || first.Stats.StatesEvaluated != 16 || store.Len() != 1 {
		t.Fatalf("first text: %d rules reused, %d states, %d entries; want 0, 16, 1",
			first.Stats.ReusedRules, first.Stats.StatesEvaluated, store.Len())
	}
	again := optimizeThrough(t, db, store, opts, src)
	if again.Stats.ReusedRules != 1 || again.Stats.StatesEvaluated != 2 {
		t.Fatalf("second text: %d rules reused over %d states, want 1 over 2", again.Stats.ReusedRules, again.Stats.StatesEvaluated)
	}
	if again.Plan.Cost.Total != first.Plan.Cost.Total || again.Stats.CheckViolations != 0 {
		t.Errorf("reused plan costs %.1f with %d violations, the search's %.1f", again.Plan.Cost.Total,
			again.Stats.CheckViolations, first.Plan.Cost.Total)
	}
	var strategies []string
	for _, e := range again.Stats.Events {
		if e.Ev == obsv.EvRule {
			strategies = append(strategies, e.Strategy)
		}
	}
	if strings.Join(strategies, ",") != "reuse" {
		t.Errorf("rule events name strategies %v, want [reuse]", strategies)
	}
	snap := reg.Snapshot()
	if snap.Counters[cbqt.MetricDecisionHits] != 1 || snap.Counters[cbqt.MetricDecisionMisses] != 1 ||
		snap.Gauges[cbqt.MetricDecisionEntries] != 1 || snap.Counters["plancache.hits"] != 0 {
		t.Errorf("store metrics %v %v", snap.Counters, snap.Gauges)
	}

	// Another object count under the same key: a fallback that searches in
	// full and records anew.
	q := qtree.MustBind(bench.Table2FamilyQuery(6), db.Catalog)
	o := &cbqt.Optimizer{Cat: db.Catalog, Opts: opts, Decisions: store,
		DecisionKey: cbqt.NewDecisionKey(plancache.Template(src), qtree.MustBind(src, db.Catalog), "test", nil)}
	res, err := o.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	// The recording linear search passes its six objects in both orders.
	if res.Stats.ReusedRules != 0 || res.Stats.StatesEvaluated != 13 || reg.Snapshot().Counters[cbqt.MetricDecisionFallbacks] != 1 {
		t.Errorf("six objects under a four-object entry: %d reused, %d states, %d fallbacks; want 0, 13, 1",
			res.Stats.ReusedRules, res.Stats.StatesEvaluated, reg.Snapshot().Counters[cbqt.MetricDecisionFallbacks])
	}

	for name, spoil := range map[string]func(*cbqt.Options){
		"faulted": func(o *cbqt.Options) {
			o.Faults = faultinject.New(faultinject.Fault{Site: "state:subquery unnesting", Kind: faultinject.KindError, Hit: 3})
		},
		"degraded": func(o *cbqt.Options) { o.Budget.MaxStates = 5 },
	} {
		spoiled := opts
		spoil(&spoiled)
		store := cbqt.NewDecisionStore(0, nil)
		res := optimizeThrough(t, db, store, spoiled, src)
		if len(res.Stats.TransformErrors) == 0 && res.Stats.Degraded == cbqt.DegradeNone {
			t.Fatalf("%s: the search neither faulted nor degraded", name)
		}
		if store.Len() != 0 {
			t.Errorf("%s: the search recorded %d entries, want none", name, store.Len())
		}
	}
}

// TestRecordedLinearSearchPassesBothWays: a linear search whose winner the
// store records passes its objects forward and then in reverse order, and
// keeps the cheaper winner. On the ten-subquery Table 2 family text the
// reverse pass finds a state much cheaper than the forward pass's, which
// the next text of the key reuses. A state cap that stops the second pass
// keeps the first pass's winner and records nothing.
func TestRecordedLinearSearchPassesBothWays(t *testing.T) {
	db := testkit.NewDB(testkit.SmallSizes(), 7)
	src := bench.Table2FamilyQuery(10)
	opts := cbqt.DefaultOptions()
	plain, err := (&cbqt.Optimizer{Cat: db.Catalog, Opts: opts}).Optimize(qtree.MustBind(src, db.Catalog))
	if err != nil {
		t.Fatal(err)
	}
	if plain.Stats.StatesEvaluated != 11 {
		t.Fatalf("the plain linear search costs %d states, want 11", plain.Stats.StatesEvaluated)
	}
	store := cbqt.NewDecisionStore(0, nil)
	recorded := optimizeThrough(t, db, store, opts, src)
	if recorded.Stats.StatesEvaluated != 21 || store.Len() != 1 {
		t.Fatalf("the recorded search costs %d states and leaves %d entries, want 21 and 1",
			recorded.Stats.StatesEvaluated, store.Len())
	}
	if recorded.Plan.Cost.Total >= 0.8*plain.Plan.Cost.Total {
		t.Errorf("the two-way search's winner costs %.1f, the forward pass's %.1f: want the reverse pass's much cheaper state",
			recorded.Plan.Cost.Total, plain.Plan.Cost.Total)
	}
	reused := optimizeThrough(t, db, store, opts, src)
	if reused.Stats.ReusedRules != 1 || reused.Stats.StatesEvaluated != 2 || reused.Plan.Cost.Total != recorded.Plan.Cost.Total {
		t.Errorf("the next text reused %d rules over %d states at cost %.1f, want 1 over 2 at %.1f",
			reused.Stats.ReusedRules, reused.Stats.StatesEvaluated, reused.Plan.Cost.Total, recorded.Plan.Cost.Total)
	}

	capped := opts
	capped.Budget.MaxStates = 14
	store = cbqt.NewDecisionStore(0, nil)
	res := optimizeThrough(t, db, store, capped, src)
	if res.Stats.Degraded == cbqt.DegradeNone || store.Len() != 0 {
		t.Fatalf("a capped second pass: degraded %q, %d entries; want degraded and none", res.Stats.Degraded, store.Len())
	}
	if res.Plan.Cost.Total > plain.Plan.Cost.Total {
		t.Errorf("a capped second pass keeps cost %.1f, above the forward winner's %.1f", res.Plan.Cost.Total, plain.Plan.Cost.Total)
	}
}

// TestDecisionStoreBoundedAndInvalidated: the store holds at most its bound
// of entries, a new catalog version (ANALYZE, DDL) keys new lookups past
// the old entries, and Invalidate drops them.
func TestDecisionStoreBoundedAndInvalidated(t *testing.T) {
	db := testkit.NewDB(testkit.SmallSizes(), 7)
	opts := cbqt.DefaultOptions()
	reg := obsv.NewRegistry()
	store := cbqt.NewDecisionStore(2, reg)
	for _, k := range []int{2, 4, 6, 8} {
		optimizeThrough(t, db, store, opts, bench.Table2FamilyQuery(k))
	}
	if store.Len() != 2 || reg.Snapshot().Counters[cbqt.MetricDecisionEvictions] != 2 {
		t.Fatalf("four templates in a store of two: %d entries, %d evictions", store.Len(),
			reg.Snapshot().Counters[cbqt.MetricDecisionEvictions])
	}

	src := bench.Table2FamilyQuery(8)
	if res := optimizeThrough(t, db, store, opts, src); res.Stats.ReusedRules != 1 {
		t.Fatalf("the latest template reused %d rules, want 1", res.Stats.ReusedRules)
	}
	if err := db.AnalyzeTable("employees"); err != nil {
		t.Fatal(err)
	}
	db.Catalog.BumpVersion() // as DDL does
	if res := optimizeThrough(t, db, store, opts, src); res.Stats.ReusedRules != 0 {
		t.Fatalf("a new catalog version reused %d rules, want 0", res.Stats.ReusedRules)
	}
	if n := store.Invalidate(db.Catalog.Version()); n != 1 || store.Len() != 1 {
		t.Fatalf("Invalidate dropped %d entries and left %d, want 1 and the new version's 1", n, store.Len())
	}
}

// TestDecisionStoreConcurrent optimizes jittered Table 2 family texts from
// several goroutines through one store and one registry (run it under
// -race): every optimization succeeds and the store stays consistent.
func TestDecisionStoreConcurrent(t *testing.T) {
	db := testkit.NewDB(testkit.SmallSizes(), 7)
	opts := cbqt.DefaultOptions()
	reg := obsv.NewRegistry()
	opts.Metrics = reg
	store := cbqt.NewDecisionStore(8, reg)
	const workers, texts = 4, 12
	var wg sync.WaitGroup
	errs := make(chan error, workers*texts)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < texts; i++ {
				src := jitterLiterals(bench.Table2FamilyQuery(4+2*(i%3)), rng)
				q := qtree.MustBind(src, db.Catalog)
				o := &cbqt.Optimizer{Cat: db.Catalog, Opts: opts, Decisions: store,
					DecisionKey: cbqt.NewDecisionKey(plancache.Template(src), q, "test", nil)}
				if _, err := o.Optimize(q); err != nil {
					errs <- err
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	snap := reg.Snapshot()
	if hits, misses := snap.Counters[cbqt.MetricDecisionHits], snap.Counters[cbqt.MetricDecisionMisses]; hits+misses != workers*texts || hits == 0 {
		t.Errorf("%d hits and %d misses over %d optimizations", hits, misses, workers*texts)
	}
	if store.Len() > 8 || int64(store.Len()) != snap.Gauges[cbqt.MetricDecisionEntries] {
		t.Errorf("%d entries, gauge %d, bound 8", store.Len(), snap.Gauges[cbqt.MetricDecisionEntries])
	}
}

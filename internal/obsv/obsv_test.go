package obsv

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestRegistryCountersGauges(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x.hits")
	c.Inc()
	c.Add(4)
	if got := r.CounterValue("x.hits"); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if got := r.CounterValue("absent"); got != 0 {
		t.Fatalf("absent counter = %d, want 0", got)
	}
	g := r.Gauge("x.level")
	g.Set(7)
	g.SetMax(3) // lower: ignored
	g.SetMax(9)
	if got := g.Value(); got != 9 {
		t.Fatalf("gauge = %d, want 9", got)
	}
	if r.Counter("x.hits") != c {
		t.Fatal("Counter must return the same instance per name")
	}
}

func TestNilRegistryAndMetricsAreInert(t *testing.T) {
	var r *Registry
	r.Counter("a").Inc()
	r.Gauge("b").Set(3)
	r.Histogram("c", 1, 2).Observe(1.5)
	if v := r.CounterValue("a"); v != 0 {
		t.Fatalf("nil registry counter = %d", v)
	}
	if d := r.Snapshot().Dump(); d != "" {
		t.Fatalf("nil registry dump = %q", d)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("c").Inc()
				r.Gauge("g").SetMax(int64(i))
				r.Histogram("h", 10, 100).Observe(float64(i))
			}
		}()
	}
	wg.Wait()
	if got := r.CounterValue("c"); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	h := r.Snapshot().Histograms["h"]
	if h.Count != 8000 {
		t.Fatalf("histogram count = %d, want 8000", h.Count)
	}
	if h.Counts[0] != 8*11 { // observations <= 10: 0..10
		t.Fatalf("bucket le_10 = %d, want 88", h.Counts[0])
	}
}

func TestSnapshotSubAndDump(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Add(10)
	r.Gauge("g").Set(5)
	pre := r.Snapshot()
	r.Counter("a").Add(7)
	r.Counter("b").Inc()
	r.Gauge("g").Set(9)
	d := r.Snapshot().Sub(pre)
	if d.Counters["a"] != 7 || d.Counters["b"] != 1 {
		t.Fatalf("delta counters = %v", d.Counters)
	}
	if d.Gauges["g"] != 9 { // gauges report their level, not a delta
		t.Fatalf("delta gauge = %d, want 9", d.Gauges["g"])
	}
	dump := d.Dump()
	want := "a 7\nb 1\ng 9"
	if dump != want {
		t.Fatalf("dump = %q, want %q", dump, want)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	events := []SearchEvent{
		{Seq: 0, Ev: EvRule, Rule: "Unnest", Strategy: "exhaustive", Objects: 2},
		{Seq: 1, Ev: EvState, Rule: "Unnest", State: "00", Outcome: OutcomeCosted, Cost: 12.5, Blocks: 3},
		{Seq: 2, Ev: EvState, Rule: "Unnest", State: "10", Outcome: OutcomeCut},
	}
	text := MarshalJSONL(events)
	lines := strings.Split(strings.TrimSuffix(text, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d, want 3", len(lines))
	}
	var back []SearchEvent
	for _, l := range lines {
		var e SearchEvent
		if err := json.Unmarshal([]byte(l), &e); err != nil {
			t.Fatalf("unmarshal %q: %v", l, err)
		}
		back = append(back, e)
	}
	if !reflect.DeepEqual(events, back) {
		t.Fatalf("round trip mismatch:\n%v\nvs\n%v", events, back)
	}
	// A cut state must not carry a cost field (no +Inf in JSON).
	if strings.Contains(lines[2], "cost") {
		t.Fatalf("cut state line carries a cost: %q", lines[2])
	}
}

func TestRenderTree(t *testing.T) {
	events := []SearchEvent{
		{Ev: EvHeuristics, Outcome: "ok"},
		{Ev: EvRule, Rule: "Unnest", Strategy: "exhaustive", Objects: 1},
		{Ev: EvState, Rule: "Unnest", State: "0", Outcome: OutcomeCosted, Cost: 12.5},
		{Ev: EvState, Rule: "Unnest", State: "1", Outcome: OutcomeCut},
		{Ev: EvWinner, Rule: "Unnest", State: "0", Outcome: WinnerUntransformed},
		{Ev: EvDegraded, Reason: "state-cap"},
	}
	got := RenderTree(events)
	for _, want := range []string{
		"rule Unnest  strategy=exhaustive objects=1",
		"state 0  costed cost=12.5",
		"state 1  cut",
		"winner 0  untransformed",
		"degraded  state-cap",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("tree missing %q:\n%s", want, got)
		}
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", 1, 10, 100)
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	s := r.Snapshot().Histograms["lat"]
	want := []int64{2, 1, 1, 1} // <=1: {0.5,1}, <=10: {5}, <=100: {50}, inf: {500}
	if !reflect.DeepEqual(s.Counts, want) {
		t.Fatalf("buckets = %v, want %v", s.Counts, want)
	}
	if s.Sum != 556 {
		t.Fatalf("sum = %d, want 556", s.Sum)
	}
	if math.IsNaN(float64(s.Count)) || s.Count != 5 {
		t.Fatalf("count = %d", s.Count)
	}
}

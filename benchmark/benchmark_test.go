package main

import (
	"context"
	"fmt"
	"net"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/cbqt"
	"repro/internal/datum"
	"repro/internal/server"
	"repro/internal/testkit"
)

// renderOps is the first n operations of a workload as text.
func renderOps(t *testing.T, name string, seed int64, n int) string {
	t.Helper()
	w, err := newWorkload(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	out := ""
	for i := 0; i < n; i++ {
		o := w.op(i)
		out += fmt.Sprintln(o.stmt, o.sql, o.binds, o.affected, o.verify, o.effect)
	}
	return out
}

func TestOperationListsFollowTheSeed(t *testing.T) {
	for _, name := range workloadNames {
		a, b, c := renderOps(t, name, 1, 300), renderOps(t, name, 1, 300), renderOps(t, name, 2, 300)
		if a != b {
			t.Errorf("%s: the same seed gave two different operation lists", name)
		}
		// write_disk's keys and order are fixed by design; its seed only
		// moves the account balances.
		if a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same operation list", name)
		}
	}
}

func TestAdhocTextsAllMissThePlanCache(t *testing.T) {
	w, err := newWorkload("adhoc_cbqt", 3)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for i := 0; i < 4000; i++ {
		text := w.op(i).sql
		if seen[text] {
			t.Fatalf("operation %d repeats an earlier text: %s", i, text)
		}
		seen[text] = true
	}
}

func TestPercentile(t *testing.T) {
	var sorted []time.Duration
	for i := 1; i <= 100; i++ {
		sorted = append(sorted, time.Duration(i))
	}
	for _, c := range []struct {
		p    float64
		want time.Duration
	}{{0.5, 50}, {0.95, 95}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(sorted, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %d, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestSelfTimeIsSpanMinusDirectChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "stmt", Start: 0, End: 100},
		{ID: 2, Name: "plancache.lookup", Parent: 1, Start: 10, End: 70},
		{ID: 3, Name: "sql.parse", Parent: 2, Start: 20, End: 30},
		{ID: 4, Name: "cbqt.search", Parent: 2, Start: 30, End: 60},
		{ID: 5, Name: "exec.run", Parent: 1, Start: 70, End: 95},
		{ID: 6, Name: "probe.optimizer.plan", Start: 100, End: 110},
	}
	want := map[string]time.Duration{
		"stmt": 15, "plancache.lookup": 20, "sql.parse": 10, "cbqt.search": 30, "exec.run": 25, "probe.optimizer.plan": 10,
	}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	// Under the root, self times add up to the root's duration.
	res := &replayResult{self: selfTimes(spans), tracedWall: 100}
	shares := res.layerShares()
	// The plan probe's 10 moves from cbqt to optimizer.
	if shares["cbqt"] != 0.20 || shares["optimizer"] != 0.10 || shares["exec"] != 0.25 {
		t.Errorf("layerShares = %v", shares)
	}
}

func TestFingerprintIgnoresRowOrderAndFloatRounding(t *testing.T) {
	row := func(id int64, s string, f float64) []datum.Datum {
		return []datum.Datum{datum.NewInt(id), datum.NewString(s), datum.NewFloat(f)}
	}
	a := fingerprintOf([][]datum.Datum{row(1, "x", 0.1+0.2), row(2, "y", 1.5)})
	b := fingerprintOf([][]datum.Datum{row(2, "y", 1.5), row(1, "x", 0.3)})
	if !a.equal(b) {
		t.Errorf("%+v and %+v should be equal", a, b)
	}
	c := fingerprintOf([][]datum.Datum{row(2, "y", 1.5), row(1, "z", 0.3)})
	if a.equal(c) {
		t.Errorf("%+v and %+v differ in a string and should not be equal", a, c)
	}
}

// TestReplayCountsRepeatAndLayersSeparate replays a short stretch of every
// workload twice on its real data size: the exact counts must agree to
// the last digit, the layer group the workload isolates must hold the
// largest share, and on the cached workloads the optimizer layers must
// stay under a tenth. adhoc_cbqt is the exception recorded in the README:
// even on small data the executor takes about as long as the search, so
// there the optimizer layers are only required to come next after exec.
func TestReplayCountsRepeatAndLayersSeparate(t *testing.T) {
	// Short stretches, each a whole number of the workload's cycles.
	stretch := map[string]int{"point_cached": 400, "adhoc_cbqt": 30, "analytic_cached": 12, "fetch_wide": 8, "write_disk": 32, "mixed_rw_disk": 32}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			w, err := newWorkload(name, 1)
			if err != nil {
				t.Fatal(err)
			}
			w.replayK = stretch[name]
			var metrics [2]map[string]float64
			var shares map[string]float64
			for pass := range metrics {
				res, err := replay(w, filepath.Join(t.TempDir(), "store"))
				if err != nil {
					t.Fatal(err)
				}
				metrics[pass] = map[string]float64{"stmt_p50_ms": 1}
				layerMetrics(res, metrics[pass])
				shares = res.layerShares()
				var covered float64
				for _, s := range shares {
					covered += s
				}
				if covered < 0.95 || covered > 1.0001 {
					t.Errorf("layer self times cover %.3f of the statements' wall time, want 0.95..1", covered)
				}
			}
			for _, m := range exactMetrics {
				if metrics[0][m] != metrics[1][m] {
					t.Errorf("%s is declared exact but two replays gave %v and %v", m, metrics[0][m], metrics[1][m])
				}
			}
			group := func(layers []string) (sum float64) {
				for _, l := range layers {
					sum += shares[l]
				}
				return sum
			}
			optimizer := group(optimizerLayers)
			if name == "adhoc_cbqt" {
				if optimizer < 0.30 || optimizer < shares["server"]+shares["plancache"] {
					t.Errorf("optimizer layers hold %.3f of adhoc_cbqt, want at least 0.30 and more than the wire: %v", optimizer, shares)
				}
				return
			}
			if optimizer >= 0.10 {
				t.Errorf("optimizer layers hold %.3f of a cached workload, want under 0.10: %v", optimizer, shares)
			}
			inGroup := map[string]bool{}
			for _, l := range w.dominant {
				inGroup[l] = true
			}
			for _, l := range layers {
				if !inGroup[l] && shares[l] >= group(w.dominant) {
					t.Errorf("%s holds %.3f, more than the %.3f of %v: %v", l, shares[l], group(w.dominant), w.dominant, shares)
				}
			}
		})
	}
}

// TestDriveAndVerifyAgainstInProcessServer runs the closed loop and the
// reference check end to end, against a server in this process.
func TestDriveAndVerifyAgainstInProcessServer(t *testing.T) {
	w, err := newWorkload("adhoc_cbqt", 1)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{DB: testkit.NewDB(testkit.SmallSizes(), dataSeed), Opts: cbqt.DefaultOptions()})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-served
	}()
	var clients []*client
	for c := 0; c < numClients; c++ {
		cl, err := dialClient(l.Addr().String(), w)
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, cl)
	}
	defer closeAll(clients)
	warm := warmUp(clients, w)
	run := drive(clients, w, [numClients]int{w.warmup, w.warmup}, 300*time.Millisecond)
	chk := &checks{}
	ref := newReference(w.size)
	checkSamples(w, ref, warm, chk)
	checkSamples(w, ref, run.samples, chk)
	if chk.failed != 0 || chk.verified == 0 || len(run.samples) == 0 {
		t.Errorf("%d samples, %d verified, %d failed: %v", len(run.samples), chk.verified, chk.failed, chk.notes)
	}
	// A wrong result must be caught.
	bad := run.samples[:0:0]
	for _, s := range append(warm, run.samples...) {
		if w.op(s.i).verify {
			s.fp.rows++
			bad = append(bad, s)
		}
	}
	chk = &checks{}
	checkSamples(w, ref, bad, chk)
	if chk.failed != len(bad) {
		t.Errorf("%d of %d corrupted results were caught", chk.failed, len(bad))
	}
}

// TestBenchmarkJSONMatchesTheCode keeps BENCHMARK.json and the harness in
// agreement: same workloads, every declared metric known with its unit.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, harness %v", names, workloadNames)
	}
	hasSetup := false
	for _, m := range append(append([]specMetric{}, spec.EndToEnd...), spec.PerLayer...) {
		if units[m.Name] != m.Unit {
			t.Errorf("%s: BENCHMARK.json unit %q, harness %q", m.Name, m.Unit, units[m.Name])
		}
		hasSetup = hasSetup || m.Name == "setup_s"
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric")
	}
}

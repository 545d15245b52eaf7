// Command benchmark measures statements end to end through a real cbqtd
// child process and, in a traced replay, layer by layer. See README.md.
//
//	bash benchmark/run.sh --workload point_cached --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh -sets 2            # whole suite twice, A/A spread against the bounds
//	bash benchmark/run.sh -compare old.json new.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// settleFor is the untimed stretch between the warm-up and the clock.
const settleFor = 2 * time.Second

// config is what one measured run needs to know.
type config struct {
	cbqtd   string // server binary
	root    string // checkout root: BENCHMARK.json, benchmark/out, .bench_build
	seed    int64
	seconds int
}

func main() {
	workloadName := flag.String("workload", "", "run one workload: "+fmt.Sprint(workloadNames))
	seed := flag.Int64("seed", 1, "seed of the operation lists (the demo data is always seed 1)")
	seconds := flag.Int("seconds", 0, "measured seconds per run (default: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced replay plus live counter deltas")
	sets := flag.Int("sets", 0, "run the whole suite this many times and check the spread against the bounds")
	compare := flag.Bool("compare", false, "compare two results files: -compare old.json new.json")
	cbqtd := flag.String("cbqtd", "", "path of the cbqtd binary (run.sh builds it)")
	flag.Parse()

	if err := run(*workloadName, *seed, *seconds, *trace, *sets, *compare, *cbqtd, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

var errIncorrect = errors.New("a correctness check failed")

func run(workloadName string, seed int64, seconds, trace, sets int, compare bool, cbqtd string, args []string) error {
	root, err := findRoot()
	if err != nil {
		return err
	}
	spec, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	if compare {
		if len(args) != 2 {
			return errors.New("-compare needs two results files")
		}
		return compareFiles(spec, args[0], args[1])
	}
	if seconds == 0 {
		seconds = spec.RunSeconds
	}
	if cbqtd == "" {
		return errors.New("-cbqtd is required (run through benchmark/run.sh, which builds it)")
	}
	cfg := config{cbqtd: cbqtd, root: root, seed: seed, seconds: seconds}
	if err := os.MkdirAll(cfg.outDir(), 0o755); err != nil {
		return err
	}
	if workloadName == "" {
		return runSuite(cfg, spec, max(sets, 1))
	}
	rep, err := runWorkload(cfg, workloadName, trace == 1)
	if err != nil {
		return err
	}
	rep.print(os.Stdout)
	line, err := rep.contractLine(spec)
	if err != nil {
		return err
	}
	fmt.Println(line)
	if !rep.Correct {
		return errIncorrect
	}
	return nil
}

func (c config) outDir() string { return filepath.Join(c.root, "benchmark", "out") }

// scratchDir names a directory under .bench_build for a disk store.
func (c config) scratchDir(label string) string {
	return filepath.Join(c.root, ".bench_build", "data", fmt.Sprintf("%s-%d", label, os.Getpid()))
}

// findRoot walks up from the working directory to the checkout root, which
// is where BENCHMARK.json lives.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no BENCHMARK.json in the working directory or above it")
		}
		dir = parent
	}
}

// report is the outcome of one run of one workload.
type report struct {
	Workload  string             `json:"workload"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Verified  int                `json:"verified"`
	Samples   int                `json:"samples"`
	Notes     []string           `json:"notes,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
}

func (r *report) print(f *os.File) {
	mode := "end to end"
	if r.Trace {
		mode = "traced"
	}
	fmt.Fprintf(f, "== %s (%s): %d timed statements, %d attempted, %d failed, %d reads checked against the reference\n",
		r.Workload, mode, r.Samples, r.Attempted, r.Failed, r.Verified)
	for _, n := range r.Notes {
		fmt.Fprintln(f, "   FAILED:", n)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(f, "   %-42s %14.4f %s\n", n, r.Metrics[n], units[n])
	}
}

// contractLine renders the one-line JSON result: every end-to-end metric
// of BENCHMARK.json for an untraced run, every per-layer metric for a
// traced one.
func (r *report) contractLine(spec *benchSpec) (string, error) {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]metric{}}
	declared := spec.EndToEnd
	if r.Trace {
		declared = spec.PerLayer
	}
	for _, m := range declared {
		v, ok := r.Metrics[m.Name]
		if !ok {
			return "", fmt.Errorf("BENCHMARK.json declares %s, which this run did not measure", m.Name)
		}
		out.Metrics[m.Name] = metric{v, m.Unit}
	}
	b, err := json.Marshal(out)
	return string(b), err
}

// runWorkload sets the server up (three times for an untraced run, whose
// setup_s is the median), drives it closed-loop, checks every result, and
// for a traced run replays the statements in-process under spans.
func runWorkload(cfg config, name string, trace bool) (*report, error) {
	w, err := newWorkload(name, cfg.seed)
	if err != nil {
		return nil, err
	}
	setups, liveFor := 3, time.Duration(cfg.seconds)*time.Second
	if trace {
		// The traced run splits its time between a live phase (counter
		// deltas, the end-to-end median the replay is compared with) and
		// the replay.
		setups, liveFor = 1, liveFor/2
	}
	dataDir := cfg.scratchDir(name)
	defer os.RemoveAll(dataDir)

	var l *live
	var warm []sample
	var setupS []float64
	for k := 0; k < setups; k++ {
		if err := l.shutDown(); err != nil {
			return nil, err
		}
		if err := os.RemoveAll(dataDir); err != nil {
			return nil, err
		}
		start := time.Now()
		if l, err = setUp(cfg, w, dataDir); err != nil {
			return nil, err
		}
		warm = warmUp(l.clients, w)
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer l.shutDown() // error paths; a second call does nothing
	clients, srv := l.clients, l.srv

	// Two untimed seconds of the same traffic let the server's heap and the
	// connections settle before the clock starts.
	var from [numClients]int
	for c := range from {
		from[c] = w.warmup
	}
	settled := drive(clients, w, from, settleFor)
	before, _, err := clients[0].c.Metrics()
	if err != nil {
		return nil, err
	}
	run := drive(clients, w, settled.executed, liveFor)
	after, _, err := clients[0].c.Metrics()
	if err != nil {
		return nil, err
	}
	rss, err := srv.peakRSSMB()
	if err != nil {
		return nil, err
	}

	chk := &checks{}
	m := map[string]float64{"setup_s": median(setupS), "server_peak_rss_mb": rss}
	liveMetrics(w, run, m)
	delta := func(name string) float64 { return float64(after[name] - before[name]) }
	m["plancache.hit_ratio"] = ratio(delta("plancache.hits"), delta("plancache.hits")+delta("plancache.misses"))
	m["server.shed"] = delta("server.shed")
	m["storage.conflicts"] = delta("storage.mvcc.conflicts")

	var model finalState
	if w.writes {
		model = modelOf(w, run.executed)
		checkFinalState(srv.addr, model, "before restart", chk)
	}
	if err := l.shutDown(); err != nil {
		return nil, err
	}
	m["storage.recovery_s"] = 0
	if w.writes {
		// Durability: the daemon is gone; a new one must recover every
		// acknowledged write from the data directory alone.
		again, err := startCbqtd(cfg.cbqtd, w.size, w.store, dataDir)
		if err != nil {
			return nil, fmt.Errorf("restart on %s: %w", dataDir, err)
		}
		m["storage.recovery_s"] = again.helloAfter.Seconds()
		checkFinalState(again.addr, model, "after restart", chk)
		if err := again.stop(); err != nil {
			return nil, err
		}
	}

	ref := newReference(w.size)
	checkSamples(w, ref, warm, chk)
	checkSamples(w, ref, settled.samples, chk)
	checkSamples(w, ref, run.samples, chk)

	if trace {
		res, err := replay(w, cfg.scratchDir(name+"-replay"))
		os.RemoveAll(cfg.scratchDir(name + "-replay"))
		if err != nil {
			return nil, err
		}
		layerMetrics(res, m)
		if err := writeTrace(filepath.Join(cfg.outDir(), "trace_"+name+".jsonl"), res.spans); err != nil {
			return nil, err
		}
	}
	return &report{
		Workload: name, Trace: trace, Metrics: m, Samples: len(run.samples),
		Correct: chk.failed == 0, Attempted: chk.attempted, Failed: chk.failed, Verified: chk.verified, Notes: chk.notes,
	}, nil
}

// live is one running cbqtd with the benchmark's connections to it.
type live struct {
	srv     *cbqtd
	clients []*client
}

// setUp spawns a server on a fresh store, waits for its first hello and
// opens the connections with the workload's statements prepared.
func setUp(cfg config, w *workload, dataDir string) (*live, error) {
	srv, err := startCbqtd(cfg.cbqtd, w.size, w.store, dataDir)
	if err != nil {
		return nil, err
	}
	l := &live{srv: srv}
	for c := 0; c < numClients; c++ {
		cl, err := dialClient(srv.addr, w)
		if err != nil {
			l.shutDown()
			return nil, err
		}
		l.clients = append(l.clients, cl)
	}
	return l, nil
}

// shutDown closes the connections, sends SIGTERM and waits for the child.
// It does nothing on a nil or already shut-down server.
func (l *live) shutDown() error {
	if l == nil || l.srv == nil {
		return nil
	}
	closeAll(l.clients)
	srv := l.srv
	l.srv = nil
	return srv.stop()
}

func closeAll(clients []*client) {
	for _, cl := range clients {
		cl.c.Close()
	}
}

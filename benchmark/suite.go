package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
)

// benchSpec is BENCHMARK.json: which metrics are gated end to end (each
// with the share by which it may worsen) and which are per-layer.
type benchSpec struct {
	RunSeconds int          `json:"run_seconds"`
	Workloads  []specNamed  `json:"workloads"`
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

type specNamed struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	spec := &benchSpec{}
	if err := json.Unmarshal(b, spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// worseBy is how much worse b is than a, as a share of a (negative when b
// is better).
func (m specMetric) worseBy(a, b float64) float64 {
	if m.Better == "higher" {
		return ratio(a-b, a)
	}
	return ratio(b-a, a)
}

// resultsFile is benchmark/out/results.json: every set of a suite run,
// stamped with what produced it.
type resultsFile struct {
	GitSHA     string     `json:"git_sha"`
	GoVersion  string     `json:"go_version"`
	GOMAXPROCS int        `json:"gomaxprocs"`
	NProc      int        `json:"nproc"`
	Seed       int64      `json:"seed"`
	Seconds    int        `json:"seconds"`
	Sets       [][]report `json:"sets"`
}

// value finds a metric of a workload in one set; end-to-end metrics come
// from the untraced run, everything else from the traced one.
func value(set []report, workload, metric string, traced bool) (float64, bool) {
	for _, r := range set {
		if r.Workload == workload && r.Trace == traced {
			v, ok := r.Metrics[metric]
			return v, ok
		}
	}
	return 0, false
}

// across gathers a metric's value in every set.
func across(sets [][]report, workload, metric string, traced bool) []float64 {
	var vs []float64
	for _, set := range sets {
		if v, ok := value(set, workload, metric, traced); ok {
			vs = append(vs, v)
		}
	}
	return vs
}

// spreadOf is how far apart values lie, as a share of their median.
func spreadOf(vs []float64) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range vs {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	return ratio(hi-lo, median(vs))
}

func gitSHA(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown" // a checkout without git metadata
	}
	return strings.TrimSpace(string(out))
}

// runSuite runs every workload untraced and traced, sets times over, writes
// results.json, and for two or more sets checks the A/A spread of every
// gated metric against its bound and the exact counts for equality.
func runSuite(cfg config, spec *benchSpec, sets int) error {
	out := resultsFile{
		GitSHA: gitSHA(cfg.root), GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc: runtime.NumCPU(), Seed: cfg.seed, Seconds: cfg.seconds,
	}
	correct := true
	for s := 0; s < sets; s++ {
		var set []report
		for _, name := range workloadNames {
			for _, traced := range []bool{false, true} {
				rep, err := runWorkload(cfg, name, traced)
				if err != nil {
					return fmt.Errorf("%s: %w", name, err)
				}
				rep.print(os.Stdout)
				correct = correct && rep.Correct
				set = append(set, *rep)
			}
		}
		out.Sets = append(out.Sets, set)
	}
	b, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(cfg.outDir(), "results.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	steady := true
	if sets > 1 {
		steady = printSpread(spec, out.Sets)
	}
	if !correct {
		return errIncorrect
	}
	if !steady {
		return fmt.Errorf("two sets of the same code disagree by more than a bound, or an exact count differs")
	}
	return nil
}

// printSpread reports, per workload and gated metric, how far the sets of
// one commit lie apart ((max-min)/median) next to the bound.
func printSpread(spec *benchSpec, sets [][]report) bool {
	ok := true
	fmt.Printf("\n%-16s %-20s %12s %12s %8s %6s\n", "workload", "metric", "min", "max", "spread", "bound")
	for _, w := range workloadNames {
		for _, m := range spec.EndToEnd {
			vs := across(sets, w, m.Name, false)
			spread := spreadOf(vs)
			verdict := ""
			if spread > m.Bound {
				verdict, ok = "  EXCEEDS", false
			}
			fmt.Printf("%-16s %-20s %12.4f %12.4f %8.3f %6.2f%s\n", w, m.Name, slices.Min(vs), slices.Max(vs), spread, m.Bound, verdict)
		}
		for _, name := range exactMetrics {
			if vs := across(sets, w, name, true); slices.Min(vs) != slices.Max(vs) {
				fmt.Printf("%-16s %-20s exact count differs between sets: %v\n", w, name, vs)
				ok = false
			}
		}
	}
	return ok
}

// compareFiles prints one row per workload and end-to-end metric: base,
// new, ratio, bound and verdict. A metric whose own sets lie further apart
// than its bound is unresolved, not ok. Exact counts must be equal.
func compareFiles(spec *benchSpec, oldPath, newPath string) error {
	load := func(path string) (*resultsFile, error) {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		rf := &resultsFile{}
		if err := json.Unmarshal(b, rf); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if len(rf.Sets) == 0 {
			return nil, fmt.Errorf("%s: no sets", path)
		}
		return rf, nil
	}
	base, err := load(oldPath)
	if err != nil {
		return err
	}
	next, err := load(newPath)
	if err != nil {
		return err
	}
	regressed := false
	fmt.Printf("%-16s %-20s %12s %12s %7s %6s  %s\n", "workload", "metric", "base", "new", "ratio", "bound", "verdict")
	for _, w := range workloadNames {
		for _, m := range spec.EndToEnd {
			a, b := across(base.Sets, w, m.Name, false), across(next.Sets, w, m.Name, false)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			am, bm := median(a), median(b)
			verdict := "ok"
			switch {
			case math.Max(spreadOf(a), spreadOf(b)) > m.Bound:
				verdict = "unresolved"
			case m.worseBy(am, bm) > m.Bound:
				verdict, regressed = "regression", true
			}
			fmt.Printf("%-16s %-20s %12.4f %12.4f %7.3f %6.2f  %s\n", w, m.Name, am, bm, ratio(bm, am), m.Bound, verdict)
		}
		for _, name := range exactMetrics {
			a, b := across(base.Sets, w, name, true), across(next.Sets, w, name, true)
			if len(a) > 0 && len(b) > 0 && a[0] != b[0] {
				fmt.Printf("%-16s %-20s %12.4f %12.4f %7.3f %6s  changed (exact count)\n", w, name, a[0], b[0], ratio(b[0], a[0]), "-")
			}
		}
		failedShare := func(rf *resultsFile) float64 {
			failed, attempted := 0, 0
			for _, set := range rf.Sets {
				for _, r := range set {
					if r.Workload == w {
						failed, attempted = failed+r.Failed, attempted+r.Attempted
					}
				}
			}
			return ratio(float64(failed), float64(attempted))
		}
		if fa, fb := failedShare(base), failedShare(next); fb > fa {
			fmt.Printf("%-16s %-20s %12.6f %12.6f %7s %6s  regression (more failed operations)\n", w, "failed_share", fa, fb, "-", "-")
			regressed = true
		}
	}
	if regressed {
		return fmt.Errorf("regression against %s", oldPath)
	}
	return nil
}

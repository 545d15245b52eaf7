// Command cbqt is an interactive front end for the cost-based query
// transformation engine: it parses a query against the built-in HR/OE
// demo schema, runs heuristic and cost-based transformation, and prints
// the transformed SQL, the physical plan with cost annotations, the
// state-space statistics, and optionally the query results.
//
// Usage:
//
//	cbqt [flags] "SELECT ..."     run one query
//	cbqt [flags]                  read queries from stdin (semicolon-terminated)
//
// With -connect the command becomes a network client for a cbqtd daemon:
// the query (with optional -bind name=value parameters) is prepared,
// executed and fetched over the wire protocol instead of in-process.
//
//	cbqt -connect 127.0.0.1:7654 -bind d=50 "SELECT ... WHERE x = :d"
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/cbqt"
	"repro/internal/exec"
	"repro/internal/faultinject"
	"repro/internal/obsv"
	"repro/internal/optimizer"
	"repro/internal/qtree"
	"repro/internal/storage"
	"repro/internal/testkit"
	"repro/internal/transform"
)

// runConfig bundles the per-query output options.
type runConfig struct {
	run     bool
	analyze bool
	metrics bool
	maxRows int
	reg     *obsv.Registry
}

func main() {
	size := flag.String("size", "small", "demo data size: small or medium")
	seed := flag.Int64("seed", 1, "data generation seed")
	strategy := flag.String("strategy", "auto", "state-space search: auto, exhaustive, iterative, linear, two-pass")
	mode := flag.String("mode", "cost", "cost-based transformations: cost, heuristic, off")
	run := flag.Bool("run", true, "execute the plan and print rows")
	maxRows := flag.Int("max-rows", 20, "maximum result rows to print")
	trace := flag.Bool("trace", false, "print the search trace as a tree and as JSONL events")
	analyze := flag.Bool("analyze", false, "execute the plan with per-operator runtime counters (EXPLAIN ANALYZE)")
	metrics := flag.Bool("metrics", false, "dump the cumulative metrics registry after each query")
	parallel := flag.Int("parallel", 0, "state-evaluation workers: 0 = GOMAXPROCS, 1 = sequential search")
	timeout := flag.Duration("timeout", 0, "per-query optimization deadline (0 = none); on expiry the best plan found so far is kept")
	maxStates := flag.Int("max-states", 0, "cap on transformation states evaluated per query (0 = unlimited)")
	maxMem := flag.Int64("max-mem", 0, "approximate memory budget in bytes for copied trees and the cost cache (0 = unlimited)")
	faults := flag.String("faults", "", "comma-separated fault injections, e.g. 'panic@apply:GBP,error@state:Unnest#3,delay(2ms)@state:*'")
	chk := flag.Bool("check", true, "statically verify every transformation state and the final plan; violations quarantine the offending rule")
	connect := flag.String("connect", "", "run as a client of the cbqtd daemon at this address")
	deadline := flag.Duration("deadline", 0, "client mode: per-query deadline, propagated to the server so it stops optimizing and executing on expiry (0 = none)")
	retries := flag.Int("retries", 1, "client mode: attempts per query; retryable failures (OVERLOADED, connection reset) back off and retry (1 = no retries)")
	var binds bindFlags
	flag.Var(&binds, "bind", "bind parameter as name=value (repeatable; value parsed as int, float, then string)")
	flag.Parse()

	if *connect != "" {
		runRemote(*connect, *strategy, *timeout, *maxStates, *chk, binds, *maxRows, *deadline, *retries)
		return
	}

	var db *storage.DB
	switch *size {
	case "small":
		db = testkit.NewDB(testkit.SmallSizes(), *seed)
	case "medium":
		db = testkit.NewDB(testkit.MediumSizes(), *seed)
	default:
		fmt.Fprintf(os.Stderr, "unknown size %q\n", *size)
		os.Exit(2)
	}

	reg := obsv.NewRegistry()
	opts := cbqt.DefaultOptions()
	opts.Trace = *trace
	opts.Metrics = reg
	if *parallel < 0 {
		fmt.Fprintf(os.Stderr, "-parallel must be >= 0\n")
		os.Exit(2)
	}
	opts.Parallelism = *parallel
	opts.Check = *chk
	opts.Budget = cbqt.Budget{Timeout: *timeout, MaxStates: *maxStates, MaxMemBytes: *maxMem}
	if *faults != "" {
		fs, err := faultinject.Parse(*faults)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad -faults: %v\n", err)
			os.Exit(2)
		}
		fs.Metrics = reg
		opts.Faults = fs
	}
	switch *strategy {
	case "auto":
		opts.Strategy = cbqt.StrategyAuto
	case "exhaustive":
		opts.Strategy = cbqt.StrategyExhaustive
	case "iterative":
		opts.Strategy = cbqt.StrategyIterative
	case "linear":
		opts.Strategy = cbqt.StrategyLinear
	case "two-pass":
		opts.Strategy = cbqt.StrategyTwoPass
	default:
		fmt.Fprintf(os.Stderr, "unknown strategy %q\n", *strategy)
		os.Exit(2)
	}
	switch *mode {
	case "cost":
	case "heuristic", "off":
		m := cbqt.RuleHeuristic
		if *mode == "off" {
			m = cbqt.RuleOff
		}
		opts.RuleModes = map[string]cbqt.RuleMode{}
		for _, r := range transform.CostBasedRules() {
			opts.RuleModes[r.Name()] = m
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown mode %q\n", *mode)
		os.Exit(2)
	}

	cfg := runConfig{run: *run, analyze: *analyze, metrics: *metrics, maxRows: *maxRows, reg: reg}
	if flag.NArg() > 0 {
		runQuery(db, strings.Join(flag.Args(), " "), opts, cfg)
		return
	}

	// REPL over stdin.
	fmt.Println("cbqt demo shell — terminate queries with ';' (schema: employees,")
	fmt.Println("departments, locations, job_history, jobs, sales, accounts)")
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	fmt.Print("cbqt> ")
	for scanner.Scan() {
		line := scanner.Text()
		if idx := strings.Index(line, ";"); idx >= 0 {
			buf.WriteString(line[:idx])
			sql := strings.TrimSpace(buf.String())
			buf.Reset()
			if sql != "" {
				runQuery(db, sql, opts, cfg)
			}
			fmt.Print("cbqt> ")
			continue
		}
		buf.WriteString(line)
		buf.WriteString("\n")
	}
}

func runQuery(db *storage.DB, sql string, opts cbqt.Options, cfg runConfig) {
	q, err := qtree.BindSQL(sql, db.Catalog)
	if err != nil {
		fmt.Fprintf(os.Stderr, "error: %v\n", err)
		return
	}
	o := &cbqt.Optimizer{Cat: db.Catalog, Opts: opts}
	start := time.Now()
	res, err := o.Optimize(q)
	if err != nil {
		fmt.Fprintf(os.Stderr, "optimize error: %v\n", err)
		return
	}
	fmt.Printf("\n-- transformed (%s, %d states, %d blocks, %d annotation hits) --\n",
		time.Since(start).Round(10*time.Microsecond),
		res.Stats.StatesEvaluated, res.Stats.BlocksOptimized, res.Stats.AnnotationHits)
	if res.Stats.CacheHits+res.Stats.CacheMisses > 0 {
		fmt.Printf("-- cost cache: %d hits, %d misses --\n",
			res.Stats.CacheHits, res.Stats.CacheMisses)
	}
	if res.Stats.Degraded != cbqt.DegradeNone {
		fmt.Printf("-- degraded: %s (best plan found within budget) --\n", res.Stats.Degraded)
	}
	for _, te := range res.Stats.TransformErrors {
		fmt.Printf("-- transformation fault: %v --\n", te)
	}
	if len(res.Stats.QuarantinedRules) > 0 {
		fmt.Printf("-- quarantined rules: %s --\n", strings.Join(res.Stats.QuarantinedRules, ", "))
	}
	if len(res.Stats.Events) > 0 {
		fmt.Println("-- search trace --")
		fmt.Print(obsv.RenderTree(res.Stats.Events))
		fmt.Println("-- search trace (jsonl) --")
		fmt.Print(obsv.MarshalJSONL(res.Stats.Events))
	}
	fmt.Println(res.Query.SQL())
	if cfg.run && cfg.analyze {
		start = time.Now()
		r, rs, err := exec.RunAnalyze(context.Background(), db, res.Plan)
		if err != nil {
			fmt.Fprintf(os.Stderr, "exec error: %v\n", err)
			return
		}
		fmt.Println("\n-- plan (analyzed) --")
		fmt.Print(exec.ExplainAnalyze(res.Plan, rs, true))
		printRows(r, start, cfg.maxRows)
	} else {
		fmt.Println("\n-- plan --")
		fmt.Print(optimizer.Explain(res.Plan))
		if cfg.run {
			start = time.Now()
			r, err := exec.Run(db, res.Plan)
			if err != nil {
				fmt.Fprintf(os.Stderr, "exec error: %v\n", err)
				return
			}
			printRows(r, start, cfg.maxRows)
		}
	}
	if cfg.metrics {
		fmt.Println("-- metrics --")
		fmt.Print(cfg.reg.Dump())
	}
}

func printRows(r *exec.Result, start time.Time, maxRows int) {
	fmt.Printf("\n-- %d rows in %s --\n", len(r.Rows), time.Since(start).Round(10*time.Microsecond))
	for i, row := range r.Rows {
		if i >= maxRows {
			fmt.Printf("  ... (%d more)\n", len(r.Rows)-maxRows)
			break
		}
		parts := make([]string, len(row))
		for j, d := range row {
			parts[j] = d.String()
		}
		fmt.Printf("  %s\n", strings.Join(parts, " | "))
	}
	fmt.Println()
}

package bench

import (
	"context"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cbqt"
	"repro/internal/obsv"
	"repro/internal/server"
	"repro/internal/storage"
)

// OverloadConfig shapes the overload experiment.
type OverloadConfig struct {
	// DB is the benchmark database.
	DB *storage.DB
	// Opts is the optimizer configuration; callers start from
	// cbqt.DefaultOptions.
	Opts cbqt.Options
	// MaxInflight / MaxQueue / QueueWait configure the server's admission
	// gate (defaults: 4 / MaxInflight / one mean service time measured at
	// calibration).
	MaxInflight int
	MaxQueue    int
	QueueWait   time.Duration
	// Multipliers are the offered-load points as multiples of the measured
	// closed-loop capacity (default 1, 4, 16).
	Multipliers []float64
	// PointDuration is the open-loop measurement window per multiplier
	// (default 2s).
	PointDuration time.Duration
	// Workers bounds the open-loop client pool (default: scaled to the
	// offered rate of each point, capped at 512).
	Workers int
	// Queries overrides the query mix (default: the Table 2 family mix
	// from overloadQueries).
	Queries []string
	// Seed drives workload generation.
	Seed int64
}

// OverloadPoint is one offered-load measurement.
type OverloadPoint struct {
	Multiplier float64
	OfferedQPS float64
	Sent       int // requests put on the wire
	Dropped    int // client-pool backpressure: never sent
	Completed  int
	Shed       int // typed OVERLOADED responses
	Failed     int // any other error (deadline, transport)
	P50        time.Duration
	P95        time.Duration
	P99        time.Duration
	ShedRate   float64 // Shed / Sent
}

// OverloadResult is the full overload experiment: the calibrated capacity
// and one point per multiplier.
type OverloadResult struct {
	MaxInflight int
	MaxQueue    int
	QueueWait   time.Duration
	CapacityQPS float64
	MeanService time.Duration
	Points      []OverloadPoint
}

// Overload measures how the admission gate degrades under offered load
// beyond capacity. It first calibrates closed-loop capacity (MaxInflight
// clients back to back against an unsaturated server, so the gate never
// sheds), then drives open-loop load at each multiplier of that capacity
// and reports completed-query latency percentiles and the shed rate.
//
// The experiment's claim, mirrored by its acceptance test: past capacity
// the server sheds (the shed rate climbs) instead of queueing unboundedly,
// so the p95 of *admitted* queries stays within about 2x of the uncontended
// baseline — the queue in front of the gate is at most MaxQueue deep and
// each waiter is bounded by QueueWait.
func Overload(ctx context.Context, cfg OverloadConfig) (*OverloadResult, error) {
	if cfg.DB == nil {
		return nil, fmt.Errorf("bench: overload needs a database")
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 4
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = cfg.MaxInflight
	}
	if len(cfg.Multipliers) == 0 {
		cfg.Multipliers = []float64{1, 4, 16}
	}
	if cfg.PointDuration <= 0 {
		cfg.PointDuration = 2 * time.Second
	}

	pqs := cfg.Queries
	if len(pqs) == 0 {
		pqs = overloadQueries()
	}

	res := &OverloadResult{MaxInflight: cfg.MaxInflight, MaxQueue: cfg.MaxQueue}

	// Calibrate: MaxInflight closed-loop clients can never exceed the slot
	// count, so every request is admitted and the measured rate is the
	// server's capacity for this workload.
	cap, err := overloadCalibrate(ctx, cfg, pqs)
	if err != nil {
		return nil, fmt.Errorf("bench: overload calibration: %w", err)
	}
	res.CapacityQPS = cap
	res.MeanService = time.Duration(float64(cfg.MaxInflight) / cap * float64(time.Second))
	if cfg.QueueWait <= 0 {
		// One mean service time of queueing keeps an admitted query's
		// latency within ~2x the uncontended baseline, which is the bound
		// the experiment demonstrates.
		cfg.QueueWait = res.MeanService
		if cfg.QueueWait < 5*time.Millisecond {
			cfg.QueueWait = 5 * time.Millisecond
		}
	}
	res.QueueWait = cfg.QueueWait

	for _, mult := range cfg.Multipliers {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		p, err := overloadPoint(ctx, cfg, pqs, mult, cap)
		if err != nil {
			return res, fmt.Errorf("bench: overload %gx: %w", mult, err)
		}
		res.Points = append(res.Points, p)
	}
	return res, nil
}

// overloadQueries builds the query mix: Table 2-family queries whose
// multi-table subqueries force the cost-based state search (8 to 64 states
// each), so optimization — the resource the admission gate protects — is
// the dominant per-request cost. The cache is off, so every request pays
// it. A tight outer filter keeps execution (which the gate deliberately
// does not cover) near free, so the measurement isolates the gate.
func overloadQueries() []string {
	var qs []string
	for _, n := range []int{3, 4, 5, 6} {
		qs = append(qs, Table2FamilyQuery(n)+" AND e.emp_id <= 3")
	}
	return qs
}

// overloadServer brings up a server with the experiment's admission gate.
func overloadServer(cfg OverloadConfig, queueWait time.Duration) (*server.Server, string, func(), error) {
	srv := server.New(server.Config{
		DB: cfg.DB, Opts: cfg.Opts, Registry: obsv.NewRegistry(), CacheOff: true,
		MaxInflight: cfg.MaxInflight, MaxQueue: cfg.MaxQueue, QueueWait: queueWait,
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", nil, err
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(l) }()
	stop := func() {
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(sctx)
		<-serveDone
	}
	return srv, l.Addr().String(), stop, nil
}

// overloadCalibrate measures closed-loop capacity with exactly MaxInflight
// clients (a generous queue wait keeps calibration shed-free).
func overloadCalibrate(ctx context.Context, cfg OverloadConfig, pqs []string) (float64, error) {
	_, addr, stop, err := overloadServer(cfg, 10*time.Second)
	if err != nil {
		return 0, err
	}
	defer stop()

	window := cfg.PointDuration
	deadline := time.Now().Add(window)
	var done atomic.Int64
	var wg sync.WaitGroup
	errCh := make(chan error, cfg.MaxInflight)
	start := time.Now()
	for w := 0; w < cfg.MaxInflight; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cli, err := server.Dial(addr, nil)
			if err != nil {
				errCh <- err
				return
			}
			defer cli.Close()
			for op := 0; time.Now().Before(deadline); op++ {
				if err := ctx.Err(); err != nil {
					errCh <- err
					return
				}
				if _, err := cli.Query(overloadPick(pqs, w, op)); err != nil {
					errCh <- err
					return
				}
				done.Add(1)
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errCh)
	for err := range errCh {
		if err != nil {
			return 0, err
		}
	}
	if done.Load() == 0 {
		return 0, fmt.Errorf("no query completed in the %s calibration window", window)
	}
	return float64(done.Load()) / elapsed.Seconds(), nil
}

// overloadPick rotates a worker through the query mix.
func overloadPick(pqs []string, w, op int) string {
	return pqs[(w+op)%len(pqs)]
}

// overloadPoint drives one open-loop offered-load level: a pacing loop
// releases requests at mult x capacity into a bounded worker pool; workers
// never retry (the point measures raw shedding, not retry masking).
func overloadPoint(ctx context.Context, cfg OverloadConfig, pqs []string, mult, capacity float64) (OverloadPoint, error) {
	_, addr, stop, err := overloadServer(cfg, cfg.QueueWait)
	if err != nil {
		return OverloadPoint{}, err
	}
	defer stop()

	rate := mult * capacity
	point := OverloadPoint{Multiplier: mult, OfferedQPS: rate}

	// Size the pool so the client can actually offer the rate: enough
	// workers to cover the offered rate at roughly four mean service times
	// per request (service + queue wait + transport). An undersized pool
	// would bottleneck on the client and hide the server's shedding.
	workers := cfg.Workers
	if workers <= 0 {
		mean := float64(cfg.MaxInflight) / capacity
		workers = int(rate*4*mean) + 1
		if min := 4*cfg.MaxInflight + 16; workers < min {
			workers = min
		}
		if workers > 512 {
			workers = 512
		}
	}

	jobs := make(chan int, workers)
	var mu sync.Mutex
	var lats []time.Duration

	var sent, dropped, completed, shed, failed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var cli *server.Client
			defer func() {
				if cli != nil {
					cli.Close()
				}
			}()
			for op := range jobs {
				if cli == nil || cli.Broken() {
					c, err := server.DialWith(addr, server.DialOptions{CallTimeout: 5 * time.Second})
					if err != nil {
						failed.Add(1)
						continue
					}
					cli = c
				}
				begin := time.Now()
				_, err := cli.Query(overloadPick(pqs, w, op))
				lat := time.Since(begin)
				switch {
				case err == nil:
					completed.Add(1)
					mu.Lock()
					lats = append(lats, lat)
					mu.Unlock()
				case server.ErrorCode(err) == server.CodeOverloaded:
					shed.Add(1)
				default:
					failed.Add(1)
				}
			}
		}(w)
	}

	// The pacing loop: every 5ms, top the sent count up to the offered
	// schedule. A full pool drops the arrival (client backpressure) rather
	// than queueing it — the open-loop property under test lives on the
	// server, not here.
	start := time.Now()
	tick := time.NewTicker(5 * time.Millisecond)
	for time.Since(start) < cfg.PointDuration && ctx.Err() == nil {
		<-tick.C
		due := int64(rate * time.Since(start).Seconds())
		for sent.Load()+dropped.Load() < due {
			select {
			case jobs <- int(sent.Load()):
				sent.Add(1)
			default:
				dropped.Add(1)
			}
		}
	}
	tick.Stop()
	close(jobs)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return point, err
	}

	point.Sent = int(sent.Load())
	point.Dropped = int(dropped.Load())
	point.Completed = int(completed.Load())
	point.Shed = int(shed.Load())
	point.Failed = int(failed.Load())
	if point.Sent > 0 {
		point.ShedRate = float64(point.Shed) / float64(point.Sent)
	}
	point.P50, point.P95, point.P99 = quantiles(lats)
	return point, nil
}

// quantiles returns the 50th/95th/99th percentile of the samples.
func quantiles(lats []time.Duration) (p50, p95, p99 time.Duration) {
	if len(lats) == 0 {
		return 0, 0, 0
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	at := func(q float64) time.Duration {
		i := int(q*float64(len(lats))+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(lats) {
			i = len(lats) - 1
		}
		return lats[i]
	}
	return at(0.50), at(0.95), at(0.99)
}

// String renders the experiment like the report tables.
func (r *OverloadResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "overload: capacity %.1f qps at %d inflight (mean service %s), queue %d x %s\n",
		r.CapacityQPS, r.MaxInflight, r.MeanService.Round(time.Millisecond), r.MaxQueue, r.QueueWait.Round(time.Millisecond))
	fmt.Fprintf(&sb, "%-6s %10s %8s %8s %8s %8s %8s %9s %9s %9s %9s\n",
		"load", "offered", "sent", "done", "shed", "failed", "dropped", "p50", "p95", "p99", "shed-rate")
	for _, p := range r.Points {
		fmt.Fprintf(&sb, "%-6s %10.1f %8d %8d %8d %8d %8d %9s %9s %9s %8.1f%%\n",
			fmt.Sprintf("%gx", p.Multiplier), p.OfferedQPS, p.Sent, p.Completed, p.Shed, p.Failed, p.Dropped,
			p.P50.Round(time.Millisecond), p.P95.Round(time.Millisecond), p.P99.Round(time.Millisecond),
			100*p.ShedRate)
	}
	if base, top := r.point(1), r.pointMax(); base != nil && top != nil && base.P95 > 0 {
		fmt.Fprintf(&sb, "p95 at %gx vs 1x: %.2fx; shed rate at %gx: %.1f%% (shedding, not queueing)\n",
			top.Multiplier, float64(top.P95)/float64(base.P95), top.Multiplier, 100*top.ShedRate)
	}
	return sb.String()
}

func (r *OverloadResult) point(mult float64) *OverloadPoint {
	for i := range r.Points {
		if r.Points[i].Multiplier == mult {
			return &r.Points[i]
		}
	}
	return nil
}

func (r *OverloadResult) pointMax() *OverloadPoint {
	var best *OverloadPoint
	for i := range r.Points {
		if best == nil || r.Points[i].Multiplier > best.Multiplier {
			best = &r.Points[i]
		}
	}
	return best
}

// Command cbqtd is the CBQT SQL server daemon: it loads the built-in
// HR/OE demo schema, listens on a TCP address, and serves concurrent
// sessions over the length-prefixed wire protocol (see internal/server).
// Sessions share one plan cache, so a parameterized query is optimized
// once and executed everywhere; ANALYZE from any session invalidates the
// affected plans.
//
// Usage:
//
//	cbqtd -addr :7654 -size medium
//	cbqtd -addr :7654 -store disk -data-dir /var/lib/cbqt
//
// With -store disk every committed write is logged to a segmented WAL
// under -data-dir and fsynced before the commit is acknowledged; on
// restart the daemon replays the log and serves the recovered state (the
// demo schema seeds the directory only on first start). Stop with
// SIGINT/SIGTERM: the daemon drains gracefully — open cursors may be
// fetched to completion; new statements are refused.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/catalog"
	"repro/internal/cbqt"
	"repro/internal/obsv"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/testkit"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7654", "TCP listen address")
	size := flag.String("size", "small", "demo data size: small or medium")
	seed := flag.Int64("seed", 1, "data generation seed")
	store := flag.String("store", "mem", "storage engine: mem (volatile) or disk (WAL-backed, durable)")
	dataDir := flag.String("data-dir", "", "disk engine data directory (required with -store disk)")
	strategy := flag.String("strategy", "auto", "default state-space search: auto, exhaustive, iterative, linear, two-pass")
	cacheOff := flag.Bool("cache-off", false, "disable the shared plan cache (every execute optimizes)")
	chk := flag.Bool("check", false, "statically verify every transformation state and plan served (sessions can override per-statement)")
	cacheEntries := flag.Int("cache-entries", 0, "plan cache bound (0 = default)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for sessions to finish")
	metricsEvery := flag.Duration("metrics-every", 0, "periodically log the metrics registry (0 = never)")
	maxInflight := flag.Int("max-inflight", 0, "admission control: concurrent optimize+execute spans (0 = unbounded)")
	maxQueue := flag.Int("max-queue", 0, "admission control: waiters allowed when all inflight slots are busy")
	queueWait := flag.Duration("queue-wait", 0, "admission control: max time a request may queue before it is shed (0 = 1s default)")
	memHigh := flag.Int64("mem-high-water", 0, "shed new optimizations when estimated optimizer memory would exceed this many bytes (0 = off)")
	idleTimeout := flag.Duration("idle-timeout", 0, "reap sessions idle longer than this (0 = never; clients ping to stay alive)")
	writeTimeout := flag.Duration("write-timeout", 0, "sever sessions whose peer stops reading responses for this long (0 = never)")
	flag.Parse()

	sizes, ok := map[string]testkit.Sizes{"small": testkit.SmallSizes(), "medium": testkit.MediumSizes()}[*size]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown size %q\n", *size)
		os.Exit(2)
	}

	var db *storage.DB
	switch *store {
	case "mem":
		db = testkit.NewDB(sizes, *seed)
	case "disk":
		if *dataDir == "" {
			fmt.Fprintln(os.Stderr, "-store disk requires -data-dir")
			os.Exit(2)
		}
		var err error
		db, err = storage.OpenDiskEngine(*dataDir, catalog.New())
		if err != nil {
			log.Fatalf("cbqtd: open disk store: %v", err)
		}
		if len(db.Catalog.Tables()) == 0 {
			// Fresh directory: load the demo dataset through the WAL so the
			// first start is durable too.
			log.Printf("cbqtd: seeding %s demo data into %s", *size, *dataDir)
			if err := testkit.Load(db, sizes, *seed); err != nil {
				log.Fatalf("cbqtd: seed disk store: %v", err)
			}
		} else {
			log.Printf("cbqtd: recovered %d table(s) from %s", len(db.Catalog.Tables()), *dataDir)
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown store %q\n", *store)
		os.Exit(2)
	}

	opts := cbqt.DefaultOptions()
	opts.Check = *chk
	st, err := cbqt.ParseStrategy(*strategy)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	opts.Strategy = st

	reg := obsv.NewRegistry()
	db.Metrics(reg) // storage.mvcc.* / storage.wal.* counters
	srv := server.New(server.Config{
		DB:              db,
		Opts:            opts,
		Registry:        reg,
		CacheOff:        *cacheOff,
		CacheMaxEntries: *cacheEntries,

		MaxInflight:       *maxInflight,
		MaxQueue:          *maxQueue,
		QueueWait:         *queueWait,
		MemHighWaterBytes: *memHigh,
		IdleTimeout:       *idleTimeout,
		WriteTimeout:      *writeTimeout,
	})

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("cbqtd: listen: %v", err)
	}
	log.Printf("cbqtd: serving %s data on %s (store %s, cache %s)", *size, l.Addr(), *store, onOff(!*cacheOff))

	if *metricsEvery > 0 {
		go func() {
			for range time.Tick(*metricsEvery) {
				log.Printf("cbqtd: metrics\n%s", reg.Dump())
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		log.Printf("cbqtd: draining (timeout %s)", *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("cbqtd: %v", err)
		}
	}()

	if err := srv.Serve(l); err != nil {
		log.Fatalf("cbqtd: serve: %v", err)
	}
	log.Printf("cbqtd: drained; final metrics\n%s", reg.Dump())
}

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}

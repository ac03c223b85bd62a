// Command dstore-coord fronts a fleet of dstore-serve workers with
// one coordinator: jobs are consistent-hashed across the fleet by
// their content-addressed IDs (so every resubmission of a spec lands
// on the worker whose caches already hold it), dead workers are
// probed out and failed over, and batch sweeps fan a config matrix
// out to the whole fleet with results streamed back as they land.
//
// Usage:
//
//	dstore-coord -workers http://h1:8080,http://h2:8080
//	dstore-coord -addr 127.0.0.1:9000 -workers http://h1:8080
//	dstore-coord -journal /var/lib/dstore/journal   # sweep crash-recovery
//
// A job is tried on every worker, owner first in ring order. Retry
// rounds (-dispatch-retries) pause 100 ms doubling to a 5 s cap, with
// seeded jitter (-seed), and one health-probe round is bounded at 2 s;
// these three are fixed, not flags.
//
// The fleet's failover, fault-tolerance and federation checks live in
// internal/fleet's tests; `make fleet-smoke` runs the focused set.
//
// API:
//
//	POST /v1/runs             submit one job; answered synchronously
//	GET  /v1/runs/{id}[/result|/trace]  proxied to the job's replicas
//	POST /v1/workers          register {"url":"http://host:port"}
//	GET  /v1/workers          fleet membership and health
//	POST /v1/sweeps           config matrix -> streamed results (SSE
//	                          with Accept: text/event-stream, NDJSON
//	                          otherwise) + aggregate report
//	GET  /v1/sweeps/{id}[/stream|/report]
//	GET  /healthz /metrics /v1/stats
package main

import (
	"context"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dstore/internal/fleet"
)

func main() {
	var (
		addr          = flag.String("addr", ":8090", "listen address")
		workers       = flag.String("workers", "", "comma-separated dstore-serve base URLs (more can register via POST /v1/workers)")
		vnodes        = flag.Int("vnodes", 64, "hash-ring points per worker")
		sweepWorkers  = flag.Int("sweep-workers", 16, "concurrent dispatches per sweep")
		probeInterval = flag.Duration("probe-interval", 2*time.Second, "worker health-probe period")
		reqTimeout    = flag.Duration("request-timeout", 30*time.Second, "per-call timeout to a worker")
		jobDeadline   = flag.Duration("job-deadline", 5*time.Minute, "end-to-end bound per job including failover")
		seed          = flag.Uint64("seed", 1, "seed for operational randomness (probe jitter, backoff jitter)")
		failThresh    = flag.Int("failure-threshold", 3, "consecutive failures before a worker's breaker opens")
		breakerCool   = flag.Duration("breaker-cooldown", 5*time.Second, "open-breaker cooldown before a half-open trial")
		quarCool      = flag.Duration("quarantine-cooldown", 2*time.Minute, "minimum quarantine after a corrupt result")
		dispRetries   = flag.Int("dispatch-retries", 3, "extra ring passes per job with backoff (negative = none)")
		maxPending    = flag.Int("max-pending", 1024, "dispatches in flight before load shedding (negative = unlimited)")
		journal       = flag.String("journal", "", "directory for sweep journals; incomplete sweeps resume at startup")
		name          = flag.String("name", "", "process name in trace exports (default coordinator)")
		storeDir      = flag.String("store", "", "content-addressed store directory for fleet profile captures (POST /v1/profiles)")
		pprofOn       = flag.Bool("pprof", false, "expose GET /debug/pprof/ on the coordinator")
	)
	flag.Parse()

	opt := fleet.Options{
		Vnodes:             *vnodes,
		SweepWorkers:       *sweepWorkers,
		ProbeInterval:      *probeInterval,
		RequestTimeout:     *reqTimeout,
		JobDeadline:        *jobDeadline,
		Seed:               *seed,
		FailureThreshold:   *failThresh,
		BreakerCooldown:    *breakerCool,
		QuarantineCooldown: *quarCool,
		DispatchRetries:    *dispRetries,
		MaxPending:         *maxPending,
		JournalDir:         *journal,
		Name:               *name,
		StoreDir:           *storeDir,
		EnablePprof:        *pprofOn,
		// Span timestamps carry wall-clock nanoseconds in production;
		// tests inject deterministic clocks instead.
		//dstore:allow-wallclock trace timestamps at the daemon boundary
		Clock: func() uint64 { return uint64(time.Now().UnixNano()) },
	}
	if *workers != "" {
		for _, w := range strings.Split(*workers, ",") {
			if w = strings.TrimSpace(w); w != "" {
				opt.Workers = append(opt.Workers, w)
			}
		}
	}

	coord, err := fleet.New(opt)
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("dstore-coord listening on %s (%d static workers)", ln.Addr(), len(opt.Workers))
	hs := &http.Server{Handler: coord.Handler()}
	go func() {
		if err := hs.Serve(ln); err != nil && err != http.ErrServerClosed {
			log.Fatal(err)
		}
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	log.Printf("shutting down")
	shCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = hs.Shutdown(shCtx)
	coord.Close()
	log.Printf("bye")
}

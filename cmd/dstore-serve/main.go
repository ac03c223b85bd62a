// Command dstore-serve exposes the simulator as a long-running HTTP
// service: submit benchmark runs as JSON jobs, wait on their results,
// and let the content-addressed cache absorb repeated requests.
//
// Usage:
//
//	dstore-serve                      # listen on :8080
//	dstore-serve -addr 127.0.0.1:9000 -workers 8 -queue 128
//	dstore-serve -store /var/dstore   # results + warm-prefix snapshots
//	                                  # persist across restarts
//
// API:
//
//	POST /v1/runs            submit {"bench":"MM","mode":"direct-store","input":"small"}
//	GET  /v1/runs/{id}       job status (+ result once done)
//	GET  /v1/runs/{id}/result raw canonical result document; waits up to
//	                          serve.ResultWait (1s) for an in-flight job
//	GET  /v1/benchmarks      what can be submitted
//	GET  /healthz            liveness
//	GET  /metrics            Prometheus counters; /v1/stats is the JSON view
//
// SIGINT/SIGTERM shut down gracefully: queued jobs are cancelled and
// in-flight simulations drain (bounded by -drain-timeout); with -store
// set, cached results and snapshots are flushed to disk first.
//
// Several daemons can be fronted by dstore-coord, which consistent-
// hashes job IDs across them and adds batch sweeps (see DESIGN.md §12).
package main

import (
	"context"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dstore/internal/serve"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		workers      = flag.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
		queueDepth   = flag.Int("queue", 64, "bounded job queue depth (full queue → 429)")
		cacheEntries = flag.Int("cache", 1024, "result cache capacity (entries)")
		jobTimeout   = flag.Duration("job-timeout", 10*time.Minute, "per-job simulation timeout (0 = none)")
		drainTimeout = flag.Duration("drain-timeout", 2*time.Minute, "graceful-shutdown drain bound")
		stallGuard   = flag.Uint64("stall-guard", 0, "per-tick event budget before a job is failed as livelocked (0 = default)")
		storeDir     = flag.String("store", "", "persistent store directory: results and warm-prefix snapshots survive restarts (empty = memory only)")
		storeMax     = flag.Int64("store-max-bytes", 0, "disk store size cap in bytes (0 = 256 MiB default, negative = unlimited)")
		name         = flag.String("name", "", "process name in trace exports (default dstore-serve)")
		pprofOn      = flag.Bool("pprof", false, "expose GET /debug/pprof/ (CPU/heap profiling; dstore-coord's POST /v1/profiles captures from it)")
	)
	flag.Parse()

	opt := serve.Options{
		Workers:          *workers,
		QueueDepth:       *queueDepth,
		CacheEntries:     *cacheEntries,
		JobTimeout:       *jobTimeout,
		StallGuardEvents: *stallGuard,
		StoreDir:         *storeDir,
		StoreMaxBytes:    *storeMax,
		Name:             *name,
		EnablePprof:      *pprofOn,
		// Span timestamps carry wall-clock nanoseconds in production;
		// tests inject deterministic clocks instead.
		//dstore:allow-wallclock trace timestamps at the daemon boundary
		Clock: func() uint64 { return uint64(time.Now().UnixNano()) },
	}

	srv, err := serve.New(opt)
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("dstore-serve listening on %s", ln.Addr())
	hs := &http.Server{Handler: srv.Handler()}
	go func() {
		if err := hs.Serve(ln); err != nil && err != http.ErrServerClosed {
			log.Fatal(err)
		}
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	log.Printf("shutting down: cancelling queued jobs, draining in-flight simulations")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := hs.Shutdown(drainCtx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if err := srv.Shutdown(drainCtx); err != nil {
		log.Printf("drain cut short: %v", err)
	}
	log.Printf("bye")
}

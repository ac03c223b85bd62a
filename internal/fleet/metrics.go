package fleet

import (
	"context"
	"fmt"
	"net/http"
	"strings"

	"dstore/internal/obs"
	"dstore/internal/obs/dtrace"
)

// metrics reads every source once and returns the coordinator's
// scalar metric table in exposition order. It is the one place each
// of these metrics is declared: /v1/stats renders this slice, and
// /metrics renders it ahead of the per-worker gauges and the federated
// worker families.
func (c *Coordinator) metrics() []obs.Metric {
	healthy, total := c.reg.healthyCount()
	probes, probeFailures := c.reg.probeCounts()
	trips, recloses, quarantines, requalified := c.reg.breakerCounts()
	// Load done before started: both only grow and every finished
	// sweep was started first, so started >= done on every scrape and
	// the active gauge never wraps.
	done := c.sweepsDone.Load()
	started := c.sweepsRun.Load()
	pending := c.pending.Load()
	if pending < 0 {
		pending = 0
	}
	spansRecorded, spansDropped := c.rec.Counts()
	c.histMu.Lock()
	dispatchLat := c.dispatchLat.Clone()
	c.histMu.Unlock()
	return []obs.Metric{
		obs.Gauge("fleet_workers", uint64(total)),
		obs.Gauge("fleet_workers_healthy", uint64(healthy)),
		obs.Counter("fleet_probes_total", probes),
		obs.Counter("fleet_probe_failures_total", probeFailures),
		obs.Counter("fleet_jobs_dispatched_total", c.dispatched.Load()),
		obs.Counter("fleet_jobs_completed_total", c.completed.Load()),
		obs.Counter("fleet_jobs_failed_total", c.jobsFailed.Load()),
		obs.Counter("fleet_dispatch_failovers_total", c.failovers.Load()),
		obs.Counter("fleet_sweeps_started_total", started),
		obs.Counter("fleet_sweeps_completed_total", done),
		obs.Gauge("fleet_sweeps_active", started-done),
		obs.Counter("fleet_sweep_results_streamed_total", c.streamed.Load()),
		obs.Counter("fleet_dispatch_retry_rounds_total", c.retryRounds.Load()),
		obs.Counter("fleet_breaker_trips_total", trips),
		obs.Counter("fleet_breaker_recloses_total", recloses),
		obs.Gauge("fleet_workers_quarantined", uint64(c.reg.quarantinedCount())),
		obs.Counter("fleet_quarantines_total", quarantines),
		obs.Counter("fleet_requalified_total", requalified),
		obs.Counter("fleet_corrupt_results_total", c.corrupt.Load()),
		obs.Counter("fleet_sweeps_degraded_total", c.sweepsDegraded.Load()),
		obs.Counter("fleet_sweeps_resumed_total", c.sweepsResumed.Load()),
		obs.Counter("fleet_jobs_replayed_total", c.jobsReplayed.Load()),
		obs.Gauge("coord_pending_jobs", uint64(pending)),
		obs.Counter("coord_shed_total", c.shed.Load()),
		obs.Counter("coord_journal_appends_total", c.journalAppends.Load()),
		obs.Counter("coord_journal_errors_total", c.journalErrors.Load()),
		obs.Counter("fleet_federation_scrapes_total", c.fedScrapes.Load()),
		obs.Counter("fleet_federation_errors_total", c.fedErrors.Load()),
		obs.Counter("fleet_trace_exports_total", c.traceExports.Load()),
		obs.Counter("coord_profile_captures_total", c.profileCaps.Load()),
		// The coordinator's span-ring counters use the coord_ prefix:
		// the workers' own obs_spans_* families arrive via federation,
		// and one exposition must not carry the same family twice.
		obs.Counter("coord_spans_recorded_total", spansRecorded),
		obs.Counter("coord_spans_dropped_total", spansDropped),
		obs.HistogramMetric("fleet_dispatch_latency_ns", dispatchLat),
	}
}

// handleMetrics implements GET /metrics in the Prometheus text
// exposition format: the scalar table, then per-worker gauges
// labelled by worker URL (health, last-scraped queue depth and cache
// hit rate, cumulative executed jobs), then the federated worker
// families.
func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	obs.WriteProm(&b, c.metrics())
	_, states := c.reg.snapshot()
	perWorker := []struct {
		name, kind string
		value      func(workerState) string
	}{
		{"fleet_worker_healthy", "gauge", func(st workerState) string {
			if st.Healthy {
				return "1"
			}
			return "0"
		}},
		{"fleet_worker_queue_depth", "gauge", func(st workerState) string {
			return fmt.Sprintf("%d", st.QueueDepth)
		}},
		{"fleet_worker_cache_hit_rate", "gauge", func(st workerState) string {
			return fmt.Sprintf("%g", st.CacheHitRate)
		}},
		{"fleet_worker_executed_total", "counter", func(st workerState) string {
			return fmt.Sprintf("%d", st.Executed)
		}},
		{"fleet_worker_breaker_open", "gauge", func(st workerState) string {
			if st.Breaker != "closed" {
				return "1"
			}
			return "0"
		}},
		{"fleet_worker_quarantined", "gauge", func(st workerState) string {
			if st.Quarantined {
				return "1"
			}
			return "0"
		}},
	}
	for _, m := range perWorker {
		fmt.Fprintf(&b, "# TYPE %s %s\n", m.name, m.kind)
		for _, st := range states {
			fmt.Fprintf(&b, "%s{worker=%q} %s\n", m.name, st.URL, m.value(st))
		}
	}
	c.writeFederation(r, &b, states)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_, _ = w.Write([]byte(b.String()))
}

// writeFederation scrapes every registered worker's /metrics and
// re-exports the union: each worker's samples labelled worker="url",
// plus an unlabelled fleet-level sum per series (histograms federate
// at the bucket level, so the summed series is itself a valid
// histogram). Workers that fail to answer within the federation
// timeout are skipped and counted in fleet_federation_errors_total —
// a partial federation beats a stalled scrape. Scrape order is the
// registry's sorted-URL order, so the rendering is deterministic in
// the fleet membership.
func (c *Coordinator) writeFederation(r *http.Request, b *strings.Builder, states []workerState) {
	var workers []dtrace.WorkerMetrics
	for _, st := range states {
		c.fedScrapes.Add(1)
		//dstore:allow-wallclock federation deadline is operational
		ctx, cancel := context.WithTimeout(r.Context(), federationTimeout)
		code, _, body, err := c.do(ctx, http.MethodGet, st.URL+"/metrics", nil)
		cancel()
		if err != nil || code != http.StatusOK {
			c.fedErrors.Add(1)
			continue
		}
		m, err := dtrace.Parse(string(body))
		if err != nil {
			c.fedErrors.Add(1)
			continue
		}
		workers = append(workers, dtrace.WorkerMetrics{Worker: st.URL, M: m})
	}
	dtrace.WriteFederated(b, workers)
}

// handleStats implements GET /v1/stats: the scalar table as an ordered
// JSON object.
func (c *Coordinator) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	obs.WriteStats(w, c.metrics())
}

package fleet

import (
	"context"
	"fmt"
	"net/http"
	"strings"

	"dstore/internal/obs"
	"dstore/internal/obs/dtrace"
	"dstore/internal/stats"
)

// metricDefs lists every scalar coordinator metric in a fixed order,
// with its Prometheus type. /metrics and /v1/stats both render from
// this table (the same convention as internal/serve), so the two
// views can never disagree on names. The names are dynamic keys to
// the stats package (//dstore:allow-statskey below), so they are not
// listed in its registry.
var metricDefs = []struct {
	name, kind string
}{
	{"fleet_workers", "gauge"},
	{"fleet_workers_healthy", "gauge"},
	{"fleet_probes_total", "counter"},
	{"fleet_probe_failures_total", "counter"},
	{"fleet_jobs_dispatched_total", "counter"},
	{"fleet_jobs_completed_total", "counter"},
	{"fleet_jobs_failed_total", "counter"},
	{"fleet_dispatch_failovers_total", "counter"},
	{"fleet_sweeps_started_total", "counter"},
	{"fleet_sweeps_completed_total", "counter"},
	{"fleet_sweeps_active", "gauge"},
	{"fleet_sweep_results_streamed_total", "counter"},
	{"fleet_dispatch_retry_rounds_total", "counter"},
	{"fleet_breaker_trips_total", "counter"},
	{"fleet_breaker_recloses_total", "counter"},
	{"fleet_workers_quarantined", "gauge"},
	{"fleet_quarantines_total", "counter"},
	{"fleet_requalified_total", "counter"},
	{"fleet_corrupt_results_total", "counter"},
	{"fleet_sweeps_degraded_total", "counter"},
	{"fleet_sweeps_resumed_total", "counter"},
	{"fleet_jobs_replayed_total", "counter"},
	{"coord_pending_jobs", "gauge"},
	{"coord_shed_total", "counter"},
	{"coord_journal_appends_total", "counter"},
	{"coord_journal_errors_total", "counter"},
	{"fleet_federation_scrapes_total", "counter"},
	{"fleet_federation_errors_total", "counter"},
	{"fleet_trace_exports_total", "counter"},
	{"coord_profile_captures_total", "counter"},
	// The coordinator's span-ring counters use the coord_ prefix — the
	// workers' own obs_spans_* families arrive via federation below,
	// and one exposition must not carry the same family twice.
	{"coord_spans_recorded_total", "counter"},
	{"coord_spans_dropped_total", "counter"},
	{"fleet_dispatch_latency_ns", "histogram"},
}

// snapshot materializes the scalar metrics as a stats.Set in
// metricDefs order.
func (c *Coordinator) snapshot() *stats.Set {
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
	values := map[string]uint64{
		"fleet_workers":                      uint64(total),
		"fleet_workers_healthy":              uint64(healthy),
		"fleet_probes_total":                 probes,
		"fleet_probe_failures_total":         probeFailures,
		"fleet_jobs_dispatched_total":        c.dispatched.Load(),
		"fleet_jobs_completed_total":         c.completed.Load(),
		"fleet_jobs_failed_total":            c.jobsFailed.Load(),
		"fleet_dispatch_failovers_total":     c.failovers.Load(),
		"fleet_sweeps_started_total":         started,
		"fleet_sweeps_completed_total":       done,
		"fleet_sweeps_active":                started - done,
		"fleet_sweep_results_streamed_total": c.streamed.Load(),
		"fleet_dispatch_retry_rounds_total":  c.retryRounds.Load(),
		"fleet_breaker_trips_total":          trips,
		"fleet_breaker_recloses_total":       recloses,
		"fleet_workers_quarantined":          uint64(c.reg.quarantinedCount()),
		"fleet_quarantines_total":            quarantines,
		"fleet_requalified_total":            requalified,
		"fleet_corrupt_results_total":        c.corrupt.Load(),
		"fleet_sweeps_degraded_total":        c.sweepsDegraded.Load(),
		"fleet_sweeps_resumed_total":         c.sweepsResumed.Load(),
		"fleet_jobs_replayed_total":          c.jobsReplayed.Load(),
		"coord_pending_jobs":                 uint64(pending),
		"coord_shed_total":                   c.shed.Load(),
		"coord_journal_appends_total":        c.journalAppends.Load(),
		"coord_journal_errors_total":         c.journalErrors.Load(),
		"fleet_federation_scrapes_total":     c.fedScrapes.Load(),
		"fleet_federation_errors_total":      c.fedErrors.Load(),
		"fleet_trace_exports_total":          c.traceExports.Load(),
		"coord_profile_captures_total":       c.profileCaps.Load(),
	}
	spansRecorded, spansDropped := c.rec.Counts()
	values["coord_spans_recorded_total"] = spansRecorded
	values["coord_spans_dropped_total"] = spansDropped
	values["fleet_dispatch_latency_ns"] = c.dispatchLatSnapshot().Count()
	set := stats.NewSet()
	for _, d := range metricDefs {
		set.Counter(d.name).Add(values[d.name]) //dstore:allow-statskey Prometheus names from metricDefs
	}
	return set
}

// handleMetrics implements GET /metrics in the Prometheus text
// exposition format: the scalar table, then per-worker gauges
// labelled by worker URL (health, last-scraped queue depth and cache
// hit rate, cumulative executed jobs).
func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	set := c.snapshot()
	var b strings.Builder
	for _, d := range metricDefs {
		if d.kind == "histogram" {
			c.dispatchLatSnapshot().WriteProm(&b, d.name)
			continue
		}
		//dstore:allow-statskey Prometheus names from metricDefs
		fmt.Fprintf(&b, "# TYPE %s %s\n%s %d\n", d.name, d.kind, d.name, set.Get(d.name))
	}
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
		ctx, cancel := context.WithTimeout(r.Context(), c.opt.FederationTimeout)
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

// dispatchLatSnapshot clones the dispatch-latency histogram under its
// lock so rendering never races concurrent dispatches.
func (c *Coordinator) dispatchLatSnapshot() *obs.Histogram {
	out := obs.NewHistogram("fleet_dispatch_latency_ns")
	c.histMu.Lock()
	out.Merge(c.dispatchLat)
	c.histMu.Unlock()
	return out
}

// handleStats implements GET /v1/stats: the scalar metrics as an
// ordered JSON object (stats.Set's encoding).
func (c *Coordinator) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	b, err := c.snapshot().MarshalJSON()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	_, _ = w.Write(b)
}

package serve

import (
	"net/http"

	"dstore/internal/obs"
	"dstore/internal/store"
)

// metrics reads every source once and returns the daemon's metric
// table in exposition order. It is the one place each metric is
// declared: /metrics and /v1/stats both render this slice.
func (s *Server) metrics() []obs.Metric {
	hits, misses, evictions, size := s.cache.stats()
	snapHits, snapMisses, snapEvictions, snapSize := s.snaps.stats()
	var disk store.Stats
	if s.disk != nil {
		disk = s.disk.Stats()
	}
	hists, queueWait := s.histSnapshot()
	s.mu.Lock()
	inflight := len(s.inflight)
	s.mu.Unlock()
	spansRecorded, spansDropped := s.rec.Counts()
	return []obs.Metric{
		obs.Counter("dstore_serve_cache_hits_total", hits),
		obs.Counter("dstore_serve_cache_misses_total", misses),
		obs.Counter("dstore_serve_cache_evictions_total", evictions),
		obs.Gauge("dstore_serve_cache_entries", uint64(size)),
		obs.Counter("dstore_serve_snapshot_hits_total", snapHits),
		obs.Counter("dstore_serve_snapshot_misses_total", snapMisses),
		obs.Counter("dstore_serve_snapshot_evictions_total", snapEvictions),
		obs.Gauge("dstore_serve_snapshot_entries", uint64(snapSize)),
		obs.Counter("dstore_store_disk_hits_total", disk.Hits),
		obs.Counter("dstore_store_disk_misses_total", disk.Misses),
		obs.Counter("dstore_store_disk_writes_total", disk.Writes),
		obs.Counter("dstore_store_disk_evictions_total", disk.Evictions),
		obs.Gauge("dstore_store_disk_bytes", uint64(disk.Bytes)),
		obs.Gauge("dstore_store_disk_entries", uint64(disk.Entries)),
		obs.Gauge("dstore_store_corrupt_entries", disk.Corrupt),
		obs.Counter("dstore_serve_coalesced_total", s.coalesced.Load()),
		obs.Counter("dstore_serve_rejected_total", s.rejected.Load()),
		obs.Counter("dstore_serve_jobs_executed_total", s.executed.Load()),
		obs.Counter("dstore_serve_jobs_failed_total", s.failed.Load()),
		obs.Counter("dstore_serve_jobs_cancelled_total", s.cancelled.Load()),
		obs.Counter("dstore_serve_jobs_panicked_total", s.panicked.Load()),
		obs.Gauge("dstore_serve_inflight_jobs", uint64(inflight)),
		obs.Gauge("dstore_serve_queue_capacity", uint64(s.opt.QueueDepth)),
		obs.HistogramMetric("dstore_sim_gpu_load_latency_ticks", hists[obs.HistGPULoadLat]),
		obs.HistogramMetric("dstore_sim_cpu_store_latency_ticks", hists[obs.HistCPUStoreLat]),
		obs.HistogramMetric("dstore_sim_push_to_first_use_ticks", hists[obs.HistPushToUse]),
		obs.HistogramMetric("dstore_serve_queue_wait_ns", queueWait),
		obs.Counter("obs_spans_recorded_total", spansRecorded),
		obs.Counter("obs_spans_dropped_total", spansDropped),
	}
}

// handleMetrics implements GET /metrics in the Prometheus text
// exposition format. The latency histograms aggregate every job the
// server has executed.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	obs.WriteProm(w, s.metrics())
}

// handleStats implements GET /v1/stats: the same table as an ordered
// JSON object.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	obs.WriteStats(w, s.metrics())
}

package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"
)

// metricDef declares one reported metric. BENCHMARK.json lists the same
// names, units and directions; TestBenchmarkJSONMatchesDeclarations keeps
// the two in step.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics a user of each workload sees. Every workload
// reports all of them from its untraced run:
//
//   - setup_s: median over setupSamples launches of the time from
//     starting the workload's process until it can issue its first
//     timed operation (process start, servers up, inputs built).
//   - wall_s: median wall time of one round, the workload's complete
//     unit of work (the Fig. 4 sweep, the serve job stream, the fleet
//     sweep pair, the standard model-check sweep).
//   - throughput_per_s: median over rounds of a round's items over its
//     wall time: simulated events (fig4), jobs (serve-mix, fleet-sweep)
//     or explored states (modelcheck) per second.
//   - alloc_mb: heap bytes allocated by one round, in MiB. It drives
//     the collector's share of host time and the process's footprint,
//     and unlike the footprint it does not depend on where collections
//     happen to land, so it repeats from run to run. The footprint is
//     per-layer: go.peak_rss_mb.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"throughput_per_s", "1/s", "higher"},
	{"alloc_mb", "MB", "lower"},
}

// hostGroups are the package groups a traced run's CPU profile is split
// into; each becomes a host.<group>_frac metric.
var hostGroups = []string{
	"sim", "gpu", "cache", "coherence", "mmu", "interconnect", "dram", "cpu",
	"core", "snap", "store", "serve", "fleet", "modelcheck",
	"http", "syscall", "encoding", "sync", "runtime", "harness", "other",
}

// perLayer are the traced run's metrics. A workload measures the ones of
// the modules layerModules gives it and prints the rest as 0, the layers
// it never reaches. README.md maps each to the end-to-end metric it
// should move.
var perLayer = append(append([]metricDef{
	// Every workload.
	{"trace.overhead_frac", "ratio", "lower"},
	{"trace.unattributed_frac", "ratio", "lower"},
	{"go.gc_cycles", "count", "lower"},
	{"go.peak_rss_mb", "MB", "lower"},
}, hostMetrics()...), []metricDef{
	// fig4: host-side timings of one sweep.
	{"bench.build_s", "s", "lower"},
	{"core.new_system_s", "s", "lower"},
	{"core.check_coherence_s", "s", "lower"},
	{"phase.produce_s", "s", "lower"},
	{"phase.kernel_s", "s", "lower"},
	{"phase.readback_s", "s", "lower"},
	{"sim.produce_ns_per_event", "ns", "lower"},
	{"sim.kernel_ns_per_event", "ns", "lower"},
	{"bench.small_wall_s", "s", "lower"},
	{"bench.big_wall_s", "s", "lower"},
	{"bench.run_p50_ms", "ms", "lower"},
	{"bench.run_p75_ms", "ms", "lower"},
	{"bench.paper_gap_pp", "pp", "lower"},
	// fig4: simulated work, summed over the sweep's runs.
	{"sim.events", "count", "lower"},
	{"sim.ticks", "count", "lower"},
	{"gpu.load_lines", "count", "lower"},
	{"gpu.store_lines", "count", "lower"},
	{"gpu.shared_ops", "count", "lower"},
	{"gpu.l1_mshr_stalls", "count", "lower"},
	{"cache.gpu_l2_accesses", "count", "lower"},
	{"cache.gpu_l2_miss_ratio", "ratio", "lower"},
	{"cache.gpu_l2_evictions", "count", "lower"},
	{"cache.cpu_l2_miss_ratio", "ratio", "lower"},
	{"coherence.requests", "count", "lower"},
	{"coherence.probes_sent", "count", "lower"},
	{"coherence.data_from_dram", "count", "lower"},
	{"coherence.data_from_peer", "count", "lower"},
	{"coherence.pushes_received", "count", "higher"},
	{"coherence.mshr_stalls", "count", "lower"},
	{"coherence.writebacks", "count", "lower"},
	{"interconnect.xbar_messages", "count", "lower"},
	{"interconnect.xbar_bytes", "B", "lower"},
	{"interconnect.direct_bytes", "B", "lower"},
	{"dram.reads", "count", "lower"},
	{"dram.writes", "count", "lower"},
	{"dram.row_hit_ratio", "ratio", "higher"},
	{"cpu.store_buffer_stall_ticks", "count", "lower"},
	// serve-mix: client-visible latency per job class.
	{"serve.cold_p50_ms", "ms", "lower"},
	{"serve.cold_p90_ms", "ms", "lower"},
	{"serve.warm_p50_ms", "ms", "lower"},
	{"serve.warm_p90_ms", "ms", "lower"},
	{"serve.hit_p50_ms", "ms", "lower"},
	{"serve.hit_p99_ms", "ms", "lower"},
	{"serve.disk_hit_p50_ms", "ms", "lower"},
	// serve-mix: request path.
	{"serve.submit_handler_ms_p50", "ms", "lower"},
	{"serve.submit_handler_ms_p99", "ms", "lower"},
	{"serve.queue_wait_mean_ms", "ms", "lower"},
	{"serve.poll_calls_per_job", "count", "lower"},
	{"serve.cache_hit_ratio", "ratio", "higher"},
	{"serve.snapshot_hit_ratio", "ratio", "higher"},
	{"serve.rejected", "count", "lower"},
	{"serve.coalesced", "count", "lower"},
	// serve-mix: snapshot and store layers.
	{"snap.encode_ms_p50", "ms", "lower"},
	{"snap.restore_ms_p50", "ms", "lower"},
	{"snap.bytes_p50", "B", "lower"},
	{"store.put_ms_p50", "ms", "lower"},
	{"store.get_ms_p50", "ms", "lower"},
	{"store.reopen_s", "s", "lower"},
	{"store.objects", "count", "lower"},
	{"store.bytes", "B", "lower"},
	// fleet-sweep.
	{"fleet.first_result_ms", "ms", "lower"},
	{"fleet.job_p50_ms", "ms", "lower"},
	{"fleet.job_p90_ms", "ms", "lower"},
	{"fleet.dispatch_mean_ms", "ms", "lower"},
	{"fleet.poll_calls_per_job", "count", "lower"},
	{"fleet.cached_frac", "ratio", "higher"},
	{"fleet.snapshot_hit_ratio", "ratio", "higher"},
	{"fleet.worker_load_skew", "ratio", "lower"},
	{"fleet.failovers", "count", "lower"},
	{"fleet.retry_rounds", "count", "lower"},
	{"span.queue_wait_s", "s", "lower"},
	{"span.simulate_s", "s", "lower"},
	{"span.dispatch_overhead_s", "s", "lower"},
	// modelcheck.
	{"modelcheck.states", "count", "lower"},
	{"modelcheck.transitions", "count", "lower"},
	{"modelcheck.transitions_per_s", "1/s", "higher"},
	{"modelcheck.ref_config_s", "s", "lower"},
	{"modelcheck.gpu2_config_s", "s", "lower"},
}...)

func hostMetrics() []metricDef {
	defs := make([]metricDef, len(hostGroups))
	for i, g := range hostGroups {
		defs[i] = metricDef{"host." + g + "_frac", "ratio", "lower"}
	}
	return defs
}

// layerModules gives the modules (a metric name up to its first dot)
// whose per-layer metrics each workload measures; every traced run also
// measures those of commonModules.
var (
	layerModules = map[string][]string{
		"fig4":        {"bench", "core", "phase", "sim", "gpu", "cache", "coherence", "interconnect", "dram", "cpu"},
		"serve-mix":   {"serve", "snap", "store"},
		"fleet-sweep": {"fleet", "span"},
		"modelcheck":  {"modelcheck"},
	}
	commonModules = []string{"trace", "go", "host"}
)

// ownedLayers returns the per-layer metrics a workload measures.
func ownedLayers(workload string) []metricDef {
	mods := make(map[string]bool)
	for _, m := range append(append([]string(nil), commonModules...), layerModules[workload]...) {
		mods[m] = true
	}
	var defs []metricDef
	for _, d := range perLayer {
		if mod, _, _ := strings.Cut(d.Name, "."); mods[mod] {
			defs = append(defs, d)
		}
	}
	return defs
}

// minBeyond is how many samples must lie above a reported percentile: a
// tail with fewer behind it is a handful of outliers, not a distribution.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// xs, refusing when fewer than minBeyond samples lie beyond it.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if n == 0 || p <= 0 || p >= 100 {
		return 0, fmt.Errorf("p%g of %d samples is undefined", p, n)
	}
	rank := int(math.Ceil(p * float64(n) / 100))
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d", p, n, n-rank, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median summarises a handful of per-round values (round walls, set-up
// launches), where no tail is reported and the percentile rule does not
// apply. An even count averages the middle two.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0 (a layer that saw no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// maxErrs bounds the failure messages one run keeps for its report.
const maxErrs = 10

// roundStats is what one round measured. Workloads with concurrent
// clients record into it from several goroutines.
type roundStats struct {
	start time.Time
	wall  time.Duration
	// items is the throughput numerator: simulated events, jobs or states.
	items float64

	mu        sync.Mutex
	attempted int
	failed    int
	errs      []string
	// lat holds latency samples in milliseconds, by class.
	lat map[string][]float64
	// layer holds per-layer values measured inside the round.
	layer map[string]float64
}

func newRoundStats() *roundStats {
	return &roundStats{lat: make(map[string][]float64), layer: make(map[string]float64)}
}

// op records one attempted operation; a non-nil err counts it failed.
func (r *roundStats) op(err error) {
	r.mu.Lock()
	r.attempted++
	r.mu.Unlock()
	if err != nil {
		r.fail(err)
	}
}

// fail records a failed check on operations already counted by op.
func (r *roundStats) fail(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	if len(r.errs) < maxErrs {
		r.errs = append(r.errs, err.Error())
	}
}

func (r *roundStats) addLat(class string, d time.Duration) {
	r.mu.Lock()
	r.lat[class] = append(r.lat[class], ms(d))
	r.mu.Unlock()
}

// pooled concatenates one latency class over several rounds.
func pooled(rounds []*roundStats, class string) []float64 {
	var xs []float64
	for _, r := range rounds {
		xs = append(xs, r.lat[class]...)
	}
	return xs
}

// perRound gathers one per-layer value from each round.
func perRound(rounds []*roundStats, name string) []float64 {
	xs := make([]float64, len(rounds))
	for i, r := range rounds {
		xs[i] = r.layer[name]
	}
	return xs
}

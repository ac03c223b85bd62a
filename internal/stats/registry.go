package stats

import "sort"

// knownKeys is the registry of every counter key a component may
// create with (*Set).Counter or read with (*Set).Get. The dstore-lint
// stats-key analyzer checks every string-literal key in the tree
// against this list, so a typo'd or one-off key fails `make lint`
// instead of silently reporting zero forever. Adding a counter to a
// component means adding its key here — the analyzer's error message
// points at this file.
//
// The daemons' Prometheus metrics are not stats counters: the serve
// daemon and the fleet coordinator each declare theirs once, as
// obs.Metric rows, and never pass those names through a Set.
var knownKeys = map[string]bool{
	// cache arrays (internal/cache)
	"accesses":  true,
	"hits":      true,
	"misses":    true,
	"evictions": true,
	"reads":     true,
	"writes":    true,

	// coherence controllers (internal/coherence)
	"probes_received":      true,
	"writebacks_sent":      true,
	"pushes_received":      true,
	"direct_stores":        true,
	"remote_loads":         true,
	"mshr_stalls":          true,
	"upgrades":             true,
	"pushes_overflowed":    true,
	"fill_bypasses":        true,
	"push_nacks":           true,
	"push_retries":         true,
	"requests":             true,
	"requests_gets":        true,
	"requests_getx":        true,
	"requests_wb":          true,
	"requests_remote_load": true,
	"probes_sent":          true,
	"writebacks":           true,
	"data_from_peer":       true,
	"data_from_dram":       true,
	"probes_filtered":      true,
	"regions_claimed":      true,
	"region_downgrades":    true,
	"skipped_invalidates":  true,

	// cores and GPU (internal/cpu, internal/gpu)
	"loads":                      true,
	"stores":                     true,
	"remote_stores":              true,
	"direct_detected":            true,
	"kernel_launches":            true,
	"barrier_arrivals":           true,
	"shared_ops":                 true,
	"global_load_lines":          true,
	"global_store_lines":         true,
	"l1_lines_flash_invalidated": true,
	"l1_mshr_stalls":             true,
	"l2_prefetches_issued":       true,
	"fence_stall_ticks":          true,
	"store_buffer_stall_ticks":   true,
	"total_latency":              true,

	// interconnect
	"messages": true,
	"bytes":    true,
	"hops":     true,

	// DRAM
	"row_hits":   true,
	"row_misses": true,

	// chaos fault injection (internal/chaos)
	"faults_injected": true,
	"ctrl_stalls":     true,
	"net_jitter":      true,
	"push_jitter":     true,
	"push_drops":      true,
	"push_dups":       true,
}

// KnownKey reports whether name is a registered counter key.
func KnownKey(name string) bool { return knownKeys[name] }

// KnownKeys returns every registered counter key in sorted order (for
// docs and tests).
func KnownKeys() []string {
	out := make([]string, 0, len(knownKeys))
	for k := range knownKeys { //dstore:allow-maprange keys sorted below
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Live sweep console: the pure rendering core behind cmd/dstore-top.
// The console is a poll-and-render loop over three coordinator
// endpoints — GET /v1/workers (fleet membership and health), GET
// /v1/sweeps (sweep progress) and GET /v1/stats (dispatch counters) —
// and everything here is side-effect free so the exact frame for a
// given fleet state is unit-testable without a terminal.
package fleet

import (
	"fmt"
	"sort"
	"strings"
)

// ConsoleWorker is one worker row as the console consumes it — the
// JSON shape GET /v1/workers serves per worker.
type ConsoleWorker struct {
	URL          string  `json:"url"`
	Healthy      bool    `json:"healthy"`
	Breaker      string  `json:"breaker"`
	Quarantined  bool    `json:"quarantined"`
	QueueDepth   int     `json:"queue_depth"`
	CacheHitRate float64 `json:"cache_hit_rate"`
	Executed     uint64  `json:"executed"`
}

// ConsoleSweep is one sweep row — the JSON shape GET /v1/sweeps serves
// per sweep.
type ConsoleSweep struct {
	ID        string `json:"id"`
	Total     int    `json:"total"`
	Completed int    `json:"completed"`
	Failed    int    `json:"failed"`
	Cached    int    `json:"cached"`
	Done      bool   `json:"done"`
	Degraded  bool   `json:"degraded"`
}

// ConsoleState is one full console frame's input.
type ConsoleState struct {
	Coordinator string
	Workers     []ConsoleWorker
	Sweeps      []ConsoleSweep
	Stats       map[string]uint64
}

// progressBar renders done/total as a fixed-width bar.
func progressBar(done, total, width int) string {
	if total <= 0 {
		return strings.Repeat("-", width)
	}
	fill := done * width / total
	if fill > width {
		fill = width
	}
	return strings.Repeat("#", fill) + strings.Repeat(".", width-fill)
}

// workerStatus compresses a worker's health triple into one word.
func workerStatus(w ConsoleWorker) string {
	switch {
	case w.Quarantined:
		return "QUARANTINED"
	case w.Breaker != "" && w.Breaker != "closed":
		return "BREAKER:" + w.Breaker
	case w.Healthy:
		return "up"
	default:
		return "DOWN"
	}
}

// RenderConsole renders one console frame as plain text: a worker
// table (status, queue depth, cache hit rate, executed jobs), a sweep
// table with progress bars, and the coordinator's headline dispatch
// counters. Workers render sorted by URL and sweeps by ID, so a frame
// is deterministic in the state regardless of map/poll ordering.
func RenderConsole(st ConsoleState) string {
	var b strings.Builder
	fmt.Fprintf(&b, "dstore fleet — %s\n\n", st.Coordinator)

	workers := make([]ConsoleWorker, len(st.Workers))
	copy(workers, st.Workers)
	sort.Slice(workers, func(i, j int) bool { return workers[i].URL < workers[j].URL })
	fmt.Fprintf(&b, "WORKERS (%d)\n", len(workers))
	fmt.Fprintf(&b, "  %-32s %-14s %7s %8s %10s\n", "URL", "STATUS", "QUEUE", "HIT%", "EXECUTED")
	for _, w := range workers {
		fmt.Fprintf(&b, "  %-32s %-14s %7d %7.1f%% %10d\n",
			w.URL, workerStatus(w), w.QueueDepth, w.CacheHitRate*100, w.Executed)
	}
	if len(workers) == 0 {
		b.WriteString("  (none registered)\n")
	}

	sweeps := make([]ConsoleSweep, len(st.Sweeps))
	copy(sweeps, st.Sweeps)
	sort.Slice(sweeps, func(i, j int) bool { return sweeps[i].ID < sweeps[j].ID })
	fmt.Fprintf(&b, "\nSWEEPS (%d)\n", len(sweeps))
	for _, s := range sweeps {
		state := "running"
		switch {
		case s.Done && s.Degraded:
			state = "DEGRADED"
		case s.Done:
			state = "done"
		}
		fmt.Fprintf(&b, "  %.12s [%s] %d/%d %s (%d cached, %d failed)\n",
			s.ID, progressBar(s.Completed, s.Total, 24), s.Completed, s.Total, state, s.Cached, s.Failed)
	}
	if len(sweeps) == 0 {
		b.WriteString("  (none)\n")
	}

	if len(st.Stats) > 0 {
		b.WriteString("\nDISPATCH ")
		for i, col := range dispatchColumns {
			if i > 0 {
				b.WriteString(" ·")
			}
			fmt.Fprintf(&b, " %s %d", col.label, st.Stats[col.key])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// dispatchColumns are the coordinator /v1/stats counters on the
// console's DISPATCH line, as (label, key).
var dispatchColumns = []struct{ label, key string }{
	{"completed", "fleet_jobs_completed_total"},
	{"failed", "fleet_jobs_failed_total"},
	{"failovers", "fleet_dispatch_failovers_total"},
	{"shed", "coord_shed_total"},
	{"corrupt", "fleet_corrupt_results_total"},
}

package fleet

import (
	"net/http"
	"strings"
	"testing"

	"dstore/internal/serve"
)

// TestRenderConsole renders a frame from fixed worker and sweep rows
// plus a live coordinator's /v1/stats after one job, so a renamed
// coordinator metric shows as a missing DISPATCH column instead of a
// silent 0.
func TestRenderConsole(t *testing.T) {
	ht := handlerTransport{"w0": serveHandler(t, serve.Options{Workers: 1})}
	base, _ := startCoord(t, Options{Workers: []string{"http://w0"}, Transport: ht})
	if resp, b := postBody(t, base+"/v1/runs", specMT, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: %d: %s", resp.StatusCode, b)
	}
	stats := coordStats(t, base)
	for _, col := range dispatchColumns {
		if _, ok := stats[col.key]; !ok {
			t.Errorf("console column %q reads %s, which /v1/stats does not serve", col.label, col.key)
		}
	}

	st := ConsoleState{
		Coordinator: "http://127.0.0.1:8090",
		Workers: []ConsoleWorker{
			{URL: "http://b:1", Healthy: true, Breaker: "closed", QueueDepth: 3, CacheHitRate: 0.5, Executed: 12},
			{URL: "http://a:1", Healthy: false, Breaker: "open"},
			{URL: "http://c:1", Quarantined: true, Breaker: "closed"},
		},
		Sweeps: []ConsoleSweep{
			{ID: "ffff000011112222", Total: 8, Completed: 4, Cached: 1},
			{ID: "aaaa000011112222", Total: 6, Completed: 6, Failed: 1, Done: true, Degraded: true},
		},
		Stats: stats,
	}
	out := RenderConsole(st)

	// Workers sorted by URL, with the status word for each state.
	ia, ib, ic := strings.Index(out, "http://a:1"), strings.Index(out, "http://b:1"), strings.Index(out, "http://c:1")
	if ia < 0 || ib < 0 || ic < 0 || !(ia < ib && ib < ic) {
		t.Fatalf("workers not sorted by URL:\n%s", out)
	}
	for _, want := range []string{"BREAKER:open", "QUARANTINED", "up", "50.0%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("frame missing %q:\n%s", want, out)
		}
	}

	// Sweeps sorted by ID, half-full bar for 4/8, degraded flagged.
	if !(strings.Index(out, "aaaa00001111") < strings.Index(out, "ffff00001111")) {
		t.Fatalf("sweeps not sorted by ID:\n%s", out)
	}
	if !strings.Contains(out, "[############............] 4/8 running") {
		t.Fatalf("frame missing 4/8 progress bar:\n%s", out)
	}
	if !strings.Contains(out, "6/6 DEGRADED") {
		t.Fatalf("frame missing degraded sweep:\n%s", out)
	}
	if !strings.Contains(out, "\nDISPATCH  completed 1 · failed 0 · failovers 0 · shed 0 · corrupt 0\n") {
		t.Fatalf("frame missing dispatch counters after one job:\n%s", out)
	}

	// Deterministic: same state, same frame.
	if out != RenderConsole(st) {
		t.Fatal("RenderConsole is not deterministic")
	}
}

func TestRenderConsoleEmpty(t *testing.T) {
	out := RenderConsole(ConsoleState{Coordinator: "http://x"})
	if !strings.Contains(out, "(none registered)") || !strings.Contains(out, "(none)") {
		t.Fatalf("empty frame missing placeholders:\n%s", out)
	}
}

func TestProgressBarEdges(t *testing.T) {
	if got := progressBar(0, 0, 8); got != "--------" {
		t.Fatalf("zero-total bar = %q", got)
	}
	if got := progressBar(9, 8, 8); got != "########" {
		t.Fatalf("overfull bar = %q", got)
	}
}

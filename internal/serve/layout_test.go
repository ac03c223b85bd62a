package serve

import (
	"net/http"
	"testing"
	"time"

	"dstore/internal/obs/obstest"
)

// TestExpositionLayoutGolden pins what the daemon exposes after one
// fixed job, run cold and then answered from cache: every # TYPE line,
// every sample name and label set, every counter and gauge value, and
// the /v1/stats keys in order with their values. Only the queue-wait
// histogram observes host time and is masked; the simulated-tick
// histograms stay exact.
//
// Regenerate deliberately with: go test ./internal/serve -run ExpositionLayout -update
func TestExpositionLayoutGolden(t *testing.T) {
	base := startServer(t, mustNew(t, Options{Workers: 1, StoreDir: t.TempDir()}))
	spec := `{"bench": "MT", "input": "small", "mode": "direct-store"}`
	sub := post(t, base, spec)
	waitStatus(t, base, sub.ID, "done", 30*time.Second)
	if again := post(t, base, spec); !again.Cached {
		t.Fatalf("resubmission not answered from cache: %+v", again)
	}

	code, metrics := getRaw(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	code, stats := getRaw(t, base+"/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("/v1/stats: %d", code)
	}
	got, err := obstest.Layout(metrics, stats, "dstore_serve_queue_wait_ns")
	if err != nil {
		t.Fatal(err)
	}
	obstest.Golden(t, "testdata/exposition.golden", got, *update)
}

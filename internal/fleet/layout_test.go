package fleet

import (
	"context"
	"flag"
	"net/http"
	"net/http/httptest"
	"testing"

	"dstore/internal/obs/obstest"
)

var update = flag.Bool("update", false, "rewrite golden files from current output")

// TestExpositionLayoutGolden pins what the coordinator exposes after
// one small sweep on fixed worker hosts and one probe round: every
// # TYPE line, every sample name and label set (the per-worker gauges
// and the federated worker families included), every counter and
// gauge value, and the /v1/stats keys in order with their values. Only
// the two histograms that observe host time are masked: the
// coordinator's dispatch latency and the workers' federated queue
// wait.
//
// Regenerate deliberately with: go test ./internal/fleet -run ExpositionLayout -update
func TestExpositionLayoutGolden(t *testing.T) {
	s := startObsStack(t)
	results, report, _ := runSweepNDJSON(t, s.base, spreadMatrix)
	if report == nil || report.Failed != 0 || len(results) != 6 {
		t.Fatalf("sweep: %d results, report %+v", len(results), report)
	}
	s.coord.reg.probeAll(context.Background())

	scrape := func(path string) []byte {
		t.Helper()
		rec := httptest.NewRecorder()
		s.coord.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: %d: %s", path, rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	metrics := scrape("/metrics")
	got, err := obstest.Layout(metrics, scrape("/v1/stats"),
		"fleet_dispatch_latency_ns", "dstore_serve_queue_wait_ns")
	if err != nil {
		t.Fatal(err)
	}
	obstest.Golden(t, "testdata/exposition.golden", got, *update)
}

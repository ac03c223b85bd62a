package serve

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"dstore/internal/obs/dtrace"
)

// TestTraceEndpoint drives a real traced run through the API: submit
// with "trace": true, wait for completion, fetch the Chrome trace, and
// check it parses the way Perfetto would. A second identical traced
// submission must serve the identical bytes from cache.
func TestTraceEndpoint(t *testing.T) {
	srv := mustNew(t, Options{Workers: 2})
	base := startServer(t, srv)

	spec := `{"bench": "MT", "input": "small", "trace": true}`
	sub := post(t, base, spec)
	if sub.code != http.StatusAccepted && sub.code != http.StatusOK {
		t.Fatalf("submit: %d", sub.code)
	}
	waitStatus(t, base, sub.ID, "done", 30*time.Second)

	code, body := getRaw(t, base+"/v1/runs/"+sub.ID+"/trace")
	if code != http.StatusOK {
		t.Fatalf("GET trace: %d: %s", code, body)
	}
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &parsed); err != nil {
		t.Fatalf("trace is not valid Chrome trace JSON: %v", err)
	}
	if len(parsed.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}

	// Resubmission answers from cache and the trace stays available.
	again := post(t, base, spec)
	if again.code != http.StatusOK || !again.Cached {
		t.Fatalf("resubmit not served from cache: code=%d cached=%v", again.code, again.Cached)
	}
	code2, body2 := getRaw(t, base+"/v1/runs/"+sub.ID+"/trace")
	if code2 != http.StatusOK || string(body2) != string(body) {
		t.Fatalf("repeated trace fetch differs: %d, %d vs %d bytes", code2, len(body2), len(body))
	}

	// An untraced twin has a different ID and no trace artifact.
	plain := post(t, base, `{"bench": "MT", "input": "small"}`)
	if plain.ID == sub.ID {
		t.Fatal("traced and untraced specs share an ID")
	}
	waitStatus(t, base, plain.ID, "done", 30*time.Second)
	code3, _ := getRaw(t, base+"/v1/runs/"+plain.ID+"/trace")
	if code3 != http.StatusNotFound {
		t.Fatalf("trace of untraced run: got %d, want 404", code3)
	}
}

// TestTraceUnknownRun checks the 404 path for never-seen IDs.
func TestTraceUnknownRun(t *testing.T) {
	srv := mustNew(t, Options{Workers: 1})
	base := startServer(t, srv)
	code, _ := getRaw(t, base+"/v1/runs/deadbeef/trace")
	if code != http.StatusNotFound {
		t.Fatalf("got %d, want 404", code)
	}
}

// TestMetricsHistograms checks the Prometheus histogram rendering:
// after one executed job, /metrics carries cumulative le buckets plus
// _sum and _count for the latency histograms, and /v1/stats carries
// the matching sample counts.
func TestMetricsHistograms(t *testing.T) {
	srv := mustNew(t, Options{Workers: 1})
	base := startServer(t, srv)

	sub := post(t, base, `{"bench": "MT", "input": "small", "mode": "direct-store"}`)
	waitStatus(t, base, sub.ID, "done", 30*time.Second)

	code, body := getRaw(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	text := string(body)
	for _, name := range []string{
		"dstore_sim_gpu_load_latency_ticks",
		"dstore_sim_cpu_store_latency_ticks",
		"dstore_sim_push_to_first_use_ticks",
	} {
		if !strings.Contains(text, "# TYPE "+name+" histogram") {
			t.Errorf("missing histogram TYPE line for %s", name)
		}
		if !strings.Contains(text, name+`_bucket{le="+Inf"}`) {
			t.Errorf("missing +Inf bucket for %s", name)
		}
		if !strings.Contains(text, name+"_sum ") || !strings.Contains(text, name+"_count ") {
			t.Errorf("missing _sum/_count for %s", name)
		}
	}
	// Bucket counts must be cumulative: the +Inf bucket equals _count.
	if !strings.Contains(text, `dstore_sim_gpu_load_latency_ticks_bucket{le="`) {
		t.Error("gpu load histogram has no finite buckets after an executed run")
	}

	m := metricsMap(t, base)
	if m["dstore_sim_gpu_load_latency_ticks"] == 0 {
		t.Error("/v1/stats gpu load histogram count is zero after an executed run")
	}
}

// TestSnapshotSpanOnlyForProbingJobs submits two untraced specs under a
// distributed-trace context each. MT opens with a CPU produce phase and
// probes the warm-prefix snapshot cache, so its trace dump carries one
// snapshot span; PT initialises its data on the GPU, never probes, and
// must carry none.
func TestSnapshotSpanOnlyForProbingJobs(t *testing.T) {
	base := startServer(t, mustNew(t, Options{Workers: 1}))
	for _, tc := range []struct {
		bench string
		trace uint64
		want  int
	}{{"PT", 0x71, 0}, {"MT", 0x72, 1}} {
		req, err := http.NewRequest(http.MethodPost, base+"/v1/runs", strings.NewReader(`{"bench":"`+tc.bench+`"}`))
		if err != nil {
			t.Fatal(err)
		}
		dtrace.SetHeaders(req.Header, tc.trace, 0)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		sub := decodeResponse(t, resp)
		resp.Body.Close()
		waitStatus(t, base, sub.ID, "done", 30*time.Second)

		code, body := getRaw(t, base+"/v1/traces/"+dtrace.FormatTraceID(tc.trace))
		if code != http.StatusOK {
			t.Fatalf("%s: GET trace dump: %d: %s", tc.bench, code, body)
		}
		var dump dtrace.Dump
		if err := json.Unmarshal(body, &dump); err != nil {
			t.Fatal(err)
		}
		got := 0
		for _, sp := range dump.Spans {
			if sp.Kind == "snapshot" {
				got++
			}
		}
		if got != tc.want || len(dump.Spans) == 0 {
			t.Errorf("%s: %d snapshot spans among %d, want %d", tc.bench, got, len(dump.Spans), tc.want)
		}
	}
}

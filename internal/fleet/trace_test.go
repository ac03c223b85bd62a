package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"dstore/internal/obs/dtrace"
	"dstore/internal/serve"
)

// getTrace fetches the stitched Chrome trace for a sweep and requires
// it to re-parse as JSON.
func getTrace(t *testing.T, base, sweepID string) []byte {
	t.Helper()
	code, b := getBody(t, base+"/v1/sweeps/"+sweepID+"/trace")
	if code != http.StatusOK {
		t.Fatalf("trace export: %d: %s", code, b)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
		OtherData   map[string]string `json:"otherData"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("stitched trace is not valid JSON: %v\n%s", err, b)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatalf("stitched trace has no events:\n%s", b)
	}
	return b
}

func TestSweepTraceUnknownSweep404(t *testing.T) {
	base, _ := startCoord(t, Options{Workers: []string{"http://127.0.0.1:1"}})
	code, _ := getBody(t, base+"/v1/sweeps/no-such-sweep/trace")
	if code != http.StatusNotFound {
		t.Fatalf("unknown sweep trace: %d, want 404", code)
	}
}

// TestSweepSSEReplayKeepsTraceStable reconnects a finished sweep's
// stream — SSE with Last-Event-ID and NDJSON from zero — and requires
// the replay to neither duplicate nor renumber outcomes, and the
// stitched trace export to stay byte-identical: replaying history is a
// read, not a re-dispatch, so it must not record new spans.
func TestSweepSSEReplayKeepsTraceStable(t *testing.T) {
	w1 := startWorker(t, serve.Options{Name: "worker-0"})
	w2 := startWorker(t, serve.Options{Name: "worker-1"})
	base, _ := startCoord(t, Options{Workers: []string{w1, w2}, SweepWorkers: 4})

	results, report, sweepID := runSweepNDJSON(t, base, sweepMatrix)
	if report == nil || report.Failed != 0 || len(results) != 4 {
		t.Fatalf("sweep: %d results, report %+v", len(results), report)
	}
	total := len(results)
	for i, o := range results {
		if o.Seq != i {
			t.Fatalf("result %d streamed with seq %d", i, o.Seq)
		}
		if o.Trace == "" || o.Trace != results[0].Trace {
			t.Fatalf("result %d trace id %q, want every outcome under %q", i, o.Trace, results[0].Trace)
		}
	}
	trace1 := getTrace(t, base, sweepID)

	// SSE reconnect as a client that saw everything up to seq total-3:
	// exactly the last two results replay, each keeping its original id.
	req, err := http.NewRequest(http.MethodGet, base+"/v1/sweeps/"+sweepID+"/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	req.Header.Set("Last-Event-ID", strconv.Itoa(total-3))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	ids, events := parseSSE(t, resp)
	if want := []int{total - 2, total - 1}; fmt.Sprint(ids) != fmt.Sprint(want) {
		t.Fatalf("SSE resume ids = %v, want %v", ids, want)
	}
	if len(events) == 0 || events[len(events)-1] != "report" {
		t.Fatalf("SSE resume events = %v, want trailing report", events)
	}

	// Full NDJSON replay: byte-identical outcomes, same seqs, same
	// trace ids — nothing renumbered, nothing doubled.
	replay, rep2, _ := runSweepNDJSON(t, base, sweepMatrix)
	if rep2 == nil || len(replay) != total {
		t.Fatalf("replay: %d results, report %+v", len(replay), rep2)
	}
	for i, o := range replay {
		if o.Seq != i || o.ID != results[i].ID || o.Trace != results[i].Trace ||
			!bytes.Equal(o.Result, results[i].Result) {
			t.Fatalf("replayed seq %d diverged from the original stream", i)
		}
	}

	// The replays above were pure reads: the span ring must not have
	// moved, so the export is byte-identical.
	trace2 := getTrace(t, base, sweepID)
	if !bytes.Equal(trace1, trace2) {
		t.Fatalf("trace export changed after stream replay:\n%s\nvs\n%s", trace1, trace2)
	}
}

// handlerTransport routes requests for fixed fake hosts straight into
// in-process handlers, so worker URLs — and with them ring placement
// and trace process rows — are identical across runs and stacks. A
// host with no route fails like a refused connection, and a handler
// that aborts with http.ErrAbortHandler (the chaosnet proxy's
// partition and reset) fails like a reset one.
type handlerTransport map[string]http.Handler

func (ht handlerTransport) RoundTrip(req *http.Request) (resp *http.Response, err error) {
	h, ok := ht[req.URL.Host]
	if !ok {
		return nil, fmt.Errorf("no route to %q", req.URL.Host)
	}
	defer func() {
		if p := recover(); p != nil {
			if p != http.ErrAbortHandler {
				panic(p)
			}
			resp, err = nil, fmt.Errorf("connection to %q reset", req.URL.Host)
		}
	}()
	if req.Body == nil {
		// Server-side requests always carry a body.
		req = req.Clone(req.Context())
		req.Body = http.NoBody
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// serveHandler boots a serve.Server, shut down at test cleanup, and
// returns its HTTP API.
func serveHandler(t *testing.T, opt serve.Options) http.Handler {
	t.Helper()
	srv, err := serve.New(opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return srv.Handler()
}

// obsStack is one complete in-process fleet: two single-threaded
// workers behind fixed fake URLs and a serial coordinator, all on
// injected step clocks.
type obsStack struct {
	base  string
	coord *Coordinator
	// workers routes the fixed worker hosts, for direct scrapes.
	workers handlerTransport
}

func startObsStack(t *testing.T) *obsStack {
	t.Helper()
	ht := handlerTransport{}
	for i, host := range []string{"w0", "w1"} {
		ht[host] = serveHandler(t, serve.Options{Workers: 1, Name: fmt.Sprintf("worker-%d", i)})
	}
	c, err := New(Options{
		Workers:       []string{"http://w0", "http://w1"},
		Transport:     ht,
		SweepWorkers:  1,
		ProbeInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(c.Handler())
	t.Cleanup(func() {
		hs.Close()
		c.Close()
	})
	return &obsStack{base: hs.URL, coord: c, workers: ht}
}

// spreadMatrix is a 6-job sweep that the obs stack's ring places on
// both workers.
const spreadMatrix = `{"bench":["MT","VA","BL"],"mode":["direct-store"],"config":{"prefetch_depth":[0,2]}}`

// TestStitchedTraceByteDeterminism runs the same sweep on two isolated
// stacks — fixed worker URLs, serial dispatch, step clocks — and
// requires the two stitched trace exports to be byte-identical, with
// spans from the coordinator and both worker processes under one trace
// ID. This is the acceptance bar for the whole tracing layer: any
// nondeterminism in span recording, merging or rendering shows up as a
// byte diff here.
func TestStitchedTraceByteDeterminism(t *testing.T) {
	var traces [][]byte
	var workerSets []map[string]bool
	var traceID string
	for run := 0; run < 2; run++ {
		s := startObsStack(t)
		results, report, sweepID := runSweepNDJSON(t, s.base, spreadMatrix)
		if report == nil || report.Failed != 0 || len(results) != 6 {
			t.Fatalf("run %d: %d results, report %+v", run, len(results), report)
		}
		byWorker := map[string]bool{}
		for _, o := range results {
			byWorker[o.Worker] = true
		}
		traceID = results[0].Trace
		workerSets = append(workerSets, byWorker)
		traces = append(traces, getTrace(t, s.base, sweepID))
	}
	if len(workerSets[0]) < 2 {
		t.Fatalf("ring placed all 6 jobs on one worker: %v", workerSets[0])
	}
	if !bytes.Equal(traces[0], traces[1]) {
		t.Fatalf("stitched traces differ between identical runs:\n%s\nvs\n%s", traces[0], traces[1])
	}

	// Both worker processes and the coordinator appear in the export.
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Pid  int               `json:"pid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
		OtherData map[string]string `json:"otherData"`
	}
	if err := json.Unmarshal(traces[0], &doc); err != nil {
		t.Fatal(err)
	}
	if got := doc.OtherData["trace"]; got == "" || got != traceID {
		t.Fatalf("stitched trace id %q, want the outcomes' %q", got, traceID)
	}
	processes := map[int]string{}
	spans := map[int]int{}
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			processes[ev.Pid] = ev.Args["name"]
		case "X":
			spans[ev.Pid]++
		}
	}
	withSpans := map[string]int{}
	for pid, name := range processes { //dstore:allow-maprange order folds into a set
		withSpans[name] = spans[pid]
	}
	for _, name := range []string{"coordinator", "worker-0", "worker-1"} {
		if withSpans[name] == 0 {
			t.Fatalf("no spans from process %q in stitched trace (got %v)", name, withSpans)
		}
	}
}

// TestFederatedMetricsEqualWorkerSums runs a sweep on the obs stack,
// scrapes each worker's /metrics directly, and requires the
// coordinator's federated /metrics to carry, for every checked
// family, an unlabelled fleet value equal to the sum of the direct
// scrapes. Each worker must have executed jobs, so a federation that
// dropped either one would show as a short sum.
func TestFederatedMetricsEqualWorkerSums(t *testing.T) {
	s := startObsStack(t)
	results, report, _ := runSweepNDJSON(t, s.base, spreadMatrix)
	if report == nil || report.Failed != 0 || len(results) != 6 {
		t.Fatalf("sweep: %d results, report %+v", len(results), report)
	}

	scrape := func(url string, h http.Handler) *dtrace.Metrics {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: %d: %s", url, rec.Code, rec.Body)
		}
		m, err := dtrace.Parse(rec.Body.String())
		if err != nil {
			t.Fatalf("parse %s: %v", url, err)
		}
		return m
	}
	// unlabelled returns name's unlabelled sample value, failing when
	// the scrape has none.
	unlabelled := func(m *dtrace.Metrics, name, from string) float64 {
		t.Helper()
		for _, smp := range m.Samples {
			if smp.Name == name && smp.Labels == "" {
				return smp.Value
			}
		}
		t.Fatalf("%s has no unlabelled %s sample", from, name)
		return 0
	}

	names := []string{
		"dstore_serve_jobs_executed_total",
		"dstore_serve_cache_misses_total",
		"obs_spans_recorded_total",
		"dstore_serve_queue_wait_ns_count",
	}
	sums := make(map[string]float64, len(names))
	for _, host := range []string{"w0", "w1"} {
		m := scrape("http://"+host+"/metrics", s.workers[host])
		if unlabelled(m, "dstore_serve_jobs_executed_total", host) == 0 {
			t.Fatalf("worker %s executed no jobs; the sums would not show a dropped worker", host)
		}
		for _, name := range names {
			sums[name] += unlabelled(m, name, host)
		}
	}
	fed := scrape(s.base+"/metrics", s.coord.Handler())
	for _, name := range names {
		if got := unlabelled(fed, name, "federated /metrics"); got != sums[name] {
			t.Fatalf("federated %s = %g, per-worker sum = %g", name, got, sums[name])
		}
	}
}

package fleet

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"dstore/internal/serve"
)

// startWorker boots a real serve.Server behind an httptest listener
// and returns its base URL.
func startWorker(t *testing.T, opt serve.Options) string {
	t.Helper()
	if opt.Workers == 0 {
		opt.Workers = 2
	}
	hs := httptest.NewServer(serveHandler(t, opt))
	t.Cleanup(hs.Close)
	return hs.URL
}

// startCoord boots a Coordinator over the given workers with
// test-friendly timings (probes effectively off unless asked for).
func startCoord(t *testing.T, opt Options) (string, *Coordinator) {
	t.Helper()
	if opt.ProbeInterval == 0 {
		opt.ProbeInterval = time.Hour
	}
	if opt.PollInterval == 0 {
		opt.PollInterval = 2 * time.Millisecond
	}
	c, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(c.Handler())
	t.Cleanup(func() {
		hs.Close()
		c.Close()
	})
	return hs.URL, c
}

func postBody(t *testing.T, url, body string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr { //dstore:allow-maprange test request headers, order free
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

func coordStats(t *testing.T, base string) map[string]uint64 {
	t.Helper()
	code, b := getBody(t, base+"/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("/v1/stats: %d: %s", code, b)
	}
	var m map[string]uint64
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatalf("/v1/stats unparseable: %v: %s", err, b)
	}
	return m
}

const specMT = `{"bench":"MT","mode":"direct-store","input":"small"}`

func TestProxySingleJobAndCacheAffinity(t *testing.T) {
	w1 := startWorker(t, serve.Options{})
	w2 := startWorker(t, serve.Options{})
	base, _ := startCoord(t, Options{Workers: []string{w1, w2}})

	resp1, b1 := postBody(t, base+"/v1/runs", specMT, nil)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("proxy submit: %d: %s", resp1.StatusCode, b1)
	}
	var rr1 runResp
	if err := json.Unmarshal(b1, &rr1); err != nil || rr1.Status != "done" || len(rr1.Result) == 0 {
		t.Fatalf("proxy response: %v %s", err, b1)
	}
	owner := resp1.Header.Get("X-Dstore-Worker")
	if owner != w1 && owner != w2 {
		t.Fatalf("X-Dstore-Worker = %q, want one of the fleet", owner)
	}

	// The resubmission must route to the same worker (hash affinity)
	// and be answered from its cache without re-simulating.
	resp2, b2 := postBody(t, base+"/v1/runs", specMT, nil)
	var rr2 runResp
	if err := json.Unmarshal(b2, &rr2); err != nil {
		t.Fatal(err)
	}
	if got := resp2.Header.Get("X-Dstore-Worker"); got != owner {
		t.Fatalf("resubmission routed to %q, first to %q — ring affinity broken", got, owner)
	}
	if !rr2.Cached {
		t.Fatal("resubmission not served from worker cache")
	}
	if !bytes.Equal(rr1.Result, rr2.Result) {
		t.Fatalf("cached result differs:\n  %s\n  %s", rr1.Result, rr2.Result)
	}

	// Status and result proxies find the job wherever it lives.
	code, st := getBody(t, base+"/v1/runs/"+rr1.ID)
	if code != http.StatusOK || !strings.Contains(string(st), `"done"`) {
		t.Fatalf("status proxy: %d: %s", code, st)
	}
	code, res := getBody(t, base+"/v1/runs/"+rr1.ID+"/result")
	if code != http.StatusOK || !bytes.Equal(res, rr1.Result) {
		t.Fatalf("result proxy: %d: %s", code, res)
	}
}

func TestProxyBadSpecRejectedLocally(t *testing.T) {
	w1 := startWorker(t, serve.Options{})
	base, c := startCoord(t, Options{Workers: []string{w1}})
	resp, b := postBody(t, base+"/v1/runs", `{"bench":"NOPE"}`, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec: %d: %s", resp.StatusCode, b)
	}
	if got := c.dispatched.Load(); got != 0 {
		t.Fatalf("bad spec reached the dispatch path (%d dispatches)", got)
	}
}

func TestUnknownRunIs404AfterFullWalk(t *testing.T) {
	w1 := startWorker(t, serve.Options{})
	w2 := startWorker(t, serve.Options{})
	base, _ := startCoord(t, Options{Workers: []string{w1, w2}})
	code, b := getBody(t, base+"/v1/runs/"+strings.Repeat("ab", 32))
	if code != http.StatusNotFound {
		t.Fatalf("unknown run: %d: %s", code, b)
	}
}

func TestWorkerRegistration(t *testing.T) {
	w1 := startWorker(t, serve.Options{})
	w2 := startWorker(t, serve.Options{})
	base, _ := startCoord(t, Options{Workers: []string{w1}})

	resp, b := postBody(t, base+"/v1/workers", fmt.Sprintf(`{"url":%q}`, w2), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("registration: %d: %s", resp.StatusCode, b)
	}
	var st workerState
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatal(err)
	}
	if !st.Healthy || st.Static {
		t.Fatalf("registered worker state: %+v (want healthy, dynamic)", st)
	}

	code, lb := getBody(t, base+"/v1/workers")
	if code != http.StatusOK {
		t.Fatalf("list: %d: %s", code, lb)
	}
	var list struct {
		Workers    []workerState `json:"workers"`
		RingPoints int           `json:"ring_points"`
	}
	if err := json.Unmarshal(lb, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Workers) != 2 || list.RingPoints == 0 {
		t.Fatalf("worker list after registration: %s", lb)
	}

	resp, b = postBody(t, base+"/v1/workers", `{"url":"not a url"}`, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad registration accepted: %d: %s", resp.StatusCode, b)
	}
}

// sweepEvent is one NDJSON stream line.
type sweepEvent struct {
	Event string          `json:"event"`
	Data  json.RawMessage `json:"data"`
}

// runSweepNDJSON posts the matrix and decodes the full stream.
func runSweepNDJSON(t *testing.T, base, matrix string) (results []Outcome, report *Report, sweepID string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+"/v1/sweeps", strings.NewReader(matrix))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("sweep submit: %d: %s", resp.StatusCode, b)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	sweepID = resp.Header.Get("X-Dstore-Sweep")
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev sweepEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		switch ev.Event {
		case "result":
			var o Outcome
			if err := json.Unmarshal(ev.Data, &o); err != nil {
				t.Fatal(err)
			}
			results = append(results, o)
		case "report":
			report = &Report{}
			if err := json.Unmarshal(ev.Data, report); err != nil {
				t.Fatal(err)
			}
		default:
			t.Fatalf("unknown stream event %q", ev.Event)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return results, report, sweepID
}

const sweepMatrix = `{
	"bench": ["MT", "VA"],
	"mode": ["direct-store"],
	"config": {"prefetch_depth": [0, 2]}
}`

func TestSweepStreamsResultsAndReport(t *testing.T) {
	w1 := startWorker(t, serve.Options{})
	w2 := startWorker(t, serve.Options{})
	base, _ := startCoord(t, Options{Workers: []string{w1, w2}, SweepWorkers: 4})

	results, report, sweepID := runSweepNDJSON(t, base, sweepMatrix)
	if len(results) != 4 {
		t.Fatalf("streamed %d results, want 4", len(results))
	}
	for _, o := range results {
		if o.Error != "" {
			t.Fatalf("sweep job %.8s failed: %s", o.ID, o.Error)
		}
		// Every result must agree byte-for-byte with asking the owning
		// worker directly.
		code, direct := getBody(t, o.Worker+"/v1/runs/"+o.ID+"/result")
		if code != http.StatusOK || !bytes.Equal(direct, o.Result) {
			t.Fatalf("sweep result for %.8s differs from worker's own copy", o.ID)
		}
	}
	if report == nil {
		t.Fatal("stream ended without a report event")
	}
	if report.SweepID != sweepID || report.Total != 4 || report.Completed != 4 || report.Failed != 0 {
		t.Fatalf("report totals: %+v", report)
	}
	if len(report.Frontier) == 0 {
		t.Fatal("report has no Pareto frontier")
	}
	last := uint64(0)
	bestBytes := ^uint64(0)
	for _, p := range report.Frontier {
		if p.Ticks < last || p.Bytes >= bestBytes {
			t.Fatalf("frontier not Pareto-ordered: %+v", report.Frontier)
		}
		last, bestBytes = p.Ticks, p.Bytes
	}
	if report.BenchTextError != "" {
		t.Fatalf("a sweep result did not parse: %s", report.BenchTextError)
	}
	// One bench-text line per job, and per benchmark line the fewest
	// ticks any of its streamed results took.
	if n := strings.Count(report.BenchText, "\n"); n != 4 {
		t.Fatalf("bench text has %d lines, want 4:\n%s", n, report.BenchText)
	}
	want := map[string]uint64{}
	for _, o := range results {
		var doc resultDoc
		if err := json.Unmarshal(o.Result, &doc); err != nil {
			t.Fatal(err)
		}
		name := "BenchmarkSweep/" + doc.Bench + "/" + doc.Mode + "/" + doc.Input
		if cur, seen := want[name]; !seen || doc.Ticks < cur {
			want[name] = doc.Ticks
		}
	}
	got := map[string]uint64{}
	for _, b := range report.Best {
		got[b.Name] = b.Ticks
	}
	if len(want) != 2 || len(report.Best) != 2 || !reflect.DeepEqual(got, want) {
		t.Fatalf("best = %+v, want the minimum ticks per benchmark %v", report.Best, want)
	}

	// The report endpoint serves the same text.
	code, text := getBody(t, base+"/v1/sweeps/"+sweepID+"/report")
	if code != http.StatusOK || string(text) != report.BenchText {
		t.Fatalf("report endpoint: %d\n%s", code, text)
	}
}

func TestSweepIsContentAddressedAndReplays(t *testing.T) {
	w1 := startWorker(t, serve.Options{})
	base, c := startCoord(t, Options{Workers: []string{w1}, SweepWorkers: 4})

	first, rep1, id1 := runSweepNDJSON(t, base, sweepMatrix)
	dispatched := c.dispatched.Load()

	// Same matrix again: same sweep ID, full replay, no new dispatches
	// (the sweep itself is the cache).
	second, rep2, id2 := runSweepNDJSON(t, base, sweepMatrix)
	if id1 != id2 {
		t.Fatalf("same matrix produced different sweep IDs %s vs %s", id1, id2)
	}
	if got := c.dispatched.Load(); got != dispatched {
		t.Fatalf("resubmitted sweep re-dispatched jobs (%d -> %d)", dispatched, got)
	}
	if len(second) != len(first) || rep2 == nil || rep2.BenchText != rep1.BenchText {
		t.Fatal("replayed sweep differs from original")
	}

	// The stream endpoint replays too.
	req, _ := http.NewRequest(http.MethodGet, base+"/v1/sweeps/"+id1+"/stream", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(b), `"event":"report"`) {
		t.Fatalf("stream replay: %d: %s", resp.StatusCode, b)
	}
}

func TestSweepSSEFraming(t *testing.T) {
	w1 := startWorker(t, serve.Options{})
	base, _ := startCoord(t, Options{Workers: []string{w1}})

	req, err := http.NewRequest(http.MethodPost, base+"/v1/sweeps",
		strings.NewReader(`{"bench":["MT"]}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type %q", ct)
	}
	s := string(b)
	if !strings.Contains(s, "event: result\ndata: ") || !strings.Contains(s, "event: report\ndata: ") {
		t.Fatalf("SSE framing missing events:\n%s", s)
	}
}

func TestSweepBadMatrix(t *testing.T) {
	w1 := startWorker(t, serve.Options{})
	base, _ := startCoord(t, Options{Workers: []string{w1}})
	for _, m := range []string{
		`{"bench":[]}`,
		`{"bench":["NOPE"]}`,
		`{"bench":["MT"],"config":{"no_such_knob":[1]}}`,
		`{"bench":["MT"],"config":{"prefetch_depth":[]}}`,
		`{"bench":["MT"],"mode":["warp-drive"]}`,
	} {
		resp, b := postBody(t, base+"/v1/sweeps", m, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("matrix %s: got %d (%s), want 400", m, resp.StatusCode, b)
		}
	}
}

func TestSweepFailsOverDeadWorker(t *testing.T) {
	// A worker that is registered and believed healthy but is already
	// gone: the transport has no route to it, so every call is refused.
	// On fixed hosts the ring gives it the same share of the matrix on
	// every run.
	const live, dead = "http://w0", "http://dead"
	ht := handlerTransport{"w0": serveHandler(t, serve.Options{Workers: 2})}

	// FailureThreshold 1 restores the old one-strike behavior this
	// test pins: the first refused connection trips the breaker.
	base, c := startCoord(t, Options{Workers: []string{live, dead}, Transport: ht, SweepWorkers: 4, FailureThreshold: 1})
	m := `{"bench":["MT","VA"],"mode":["direct-store"],"config":{"prefetch_depth":[0,1],"sms":[2,4],"max_warps_per_sm":[4,8]}}`
	results, report, _ := runSweepNDJSON(t, base, m)
	if len(results) != 16 || report == nil || report.Failed != 0 {
		t.Fatalf("sweep with a dead worker: %d results, report %+v", len(results), report)
	}
	deadOwned := 0
	for _, o := range results {
		if o.Worker != live {
			t.Fatalf("job %.8s served by %q, want the live worker", o.ID, o.Worker)
		}
		if c.reg.currentRing().owners(o.ID, 1)[0] == dead {
			deadOwned++
		}
	}
	if deadOwned == 0 {
		t.Fatal("the dead worker owns none of the 16 jobs; failover is not exercised")
	}
	if c.failovers.Load() == 0 {
		t.Fatal("no failovers recorded despite a dead ring member")
	}
	st := coordStats(t, base)
	if st["fleet_jobs_failed_total"] != 0 || st["fleet_jobs_completed_total"] != 16 {
		t.Fatalf("stats after failover sweep: %v", st)
	}
	if st["fleet_breaker_trips_total"] == 0 {
		t.Fatalf("dead worker never tripped its breaker: %v", st)
	}
	if st["fleet_workers_healthy"] != 1 {
		t.Fatalf("dead worker still counted healthy: %v", st)
	}
}

func TestMatrixExpansionDedupes(t *testing.T) {
	// "direct-store" and "" normalize identically, so the two modes
	// collapse to one job per bench.
	m := Matrix{Bench: []string{"MT"}, Mode: []string{"", "direct-store"}}
	jobs, err := m.expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 {
		t.Fatalf("expansion did not dedupe normalized twins: %d jobs", len(jobs))
	}
}

func TestMatrixExpansionCap(t *testing.T) {
	vals := make([]json.RawMessage, 60)
	for i := range vals {
		vals[i] = json.RawMessage(fmt.Sprintf("%d", i+1))
	}
	m := Matrix{
		Bench: []string{"MT"},
		Config: map[string][]json.RawMessage{
			"sms":              vals,
			"max_warps_per_sm": vals,
			"prefetch_depth":   vals,
		},
	}
	if _, err := m.expand(); err == nil {
		t.Fatal("216000-job matrix expanded without hitting the cap")
	}
}

func TestCoordinatorMetricsEndpoint(t *testing.T) {
	w1 := startWorker(t, serve.Options{})
	base, _ := startCoord(t, Options{Workers: []string{w1}})
	_, _ = postBody(t, base+"/v1/runs", specMT, nil)
	code, b := getBody(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	for _, want := range []string{
		"fleet_jobs_dispatched_total 1",
		"fleet_jobs_completed_total 1",
		"fleet_workers 1",
		"fleet_worker_healthy{worker=\"" + w1 + "\"} 1",
	} {
		if !strings.Contains(string(b), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, b)
		}
	}
}

// TestSweepsActiveNeverExceedsStarted scrapes /v1/stats in a loop
// while 127 distinct sweeps start and finish, and requires
// fleet_sweeps_active <= fleet_sweeps_started_total on every scrape.
// The gauge is started - done: a scrape that read done after started
// could count a sweep finishing that it never saw start and wrap the
// gauge to about 1.8e19.
func TestSweepsActiveNeverExceedsStarted(t *testing.T) {
	ht := handlerTransport{"w0": serveHandler(t, serve.Options{Workers: 2})}
	base, c := startCoord(t, Options{Workers: []string{"http://w0"}, Transport: ht})

	stop := make(chan struct{})
	scrapes := make(chan int, 1)
	go func() {
		n := 0
		defer func() { scrapes <- n }()
		for {
			select {
			case <-stop:
				return
			default:
			}
			rec := httptest.NewRecorder()
			c.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
			var st map[string]uint64
			if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
				t.Errorf("/v1/stats unparseable: %v", err)
				return
			}
			if st["fleet_sweeps_active"] > st["fleet_sweeps_started_total"] {
				t.Errorf("scrape %d: fleet_sweeps_active %d > fleet_sweeps_started_total %d",
					n, st["fleet_sweeps_active"], st["fleet_sweeps_started_total"])
				return
			}
			n++
		}
	}()

	// The 127 non-empty subsets of seven SM counts are distinct sweeps
	// over only seven distinct jobs, so nearly every job is a cache hit.
	sms := []string{"2", "4", "6", "8", "10", "12", "14"}
	const sweeps = 1<<7 - 1
	func() {
		defer close(stop) // also on t.Fatal, so the scraper always exits
		for mask := 1; mask <= sweeps; mask++ {
			var vals []string
			for i, v := range sms {
				if mask&(1<<i) != 0 {
					vals = append(vals, v)
				}
			}
			m := `{"bench":["MT"],"mode":["direct-store"],"config":{"sms":[` + strings.Join(vals, ",") + `]}}`
			if _, report, _ := runSweepNDJSON(t, base, m); report == nil || report.Failed != 0 {
				t.Fatalf("sweep %d: report %+v", mask, report)
			}
		}
	}()
	if n := <-scrapes; n == 0 && !t.Failed() {
		t.Fatal("no /v1/stats scrape completed during the sweeps")
	}

	// Close waits for every sweep goroutine, so the counters are final.
	c.Close()
	st := coordStats(t, base)
	if st["fleet_sweeps_started_total"] != sweeps || st["fleet_sweeps_completed_total"] != sweeps || st["fleet_sweeps_active"] != 0 {
		t.Fatalf("after %d sweeps: %v", sweeps, st)
	}
}

// TestWorkerStatsNamesServed requires every dstore-serve metric the
// registry's probes decode (workerStats' JSON tags) in a live worker's
// /v1/stats. A renamed worker metric would otherwise leave the
// per-worker gauges reading a silent 0.
func TestWorkerStatsNamesServed(t *testing.T) {
	rec := httptest.NewRecorder()
	serveHandler(t, serve.Options{Workers: 1}).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var served map[string]uint64
	if err := json.Unmarshal(rec.Body.Bytes(), &served); err != nil {
		t.Fatalf("worker /v1/stats unparseable: %v: %s", err, rec.Body)
	}
	typ := reflect.TypeOf(workerStats{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Tag.Get("json")
		if _, ok := served[name]; !ok {
			t.Errorf("workerStats.%s decodes %q, which a worker's /v1/stats does not serve", typ.Field(i).Name, name)
		}
	}
}

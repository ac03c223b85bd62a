package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"dstore/internal/bench"
)

// mustNew is New for tests that expect construction to succeed (it
// only fails when a persistent store directory cannot be opened).
func mustNew(t *testing.T, opt Options) *Server {
	t.Helper()
	srv, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// testServer is newServer (the injectable-run-function hook) with the
// same must semantics.
func testServer(t *testing.T, opt Options, runFn func(context.Context, *job) ([]byte, error)) *Server {
	t.Helper()
	srv, err := newServer(opt, runFn)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// startServer boots a Server behind httptest and tears both down with
// the test.
func startServer(t *testing.T, srv *Server) string {
	t.Helper()
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	return hs.URL
}

type testResponse struct {
	code    int
	headers http.Header
	ID      string          `json:"id"`
	Status  string          `json:"status"`
	Cached  bool            `json:"cached"`
	Result  json.RawMessage `json:"result"`
	Error   string          `json:"error"`
}

func post(t *testing.T, base, body string) testResponse {
	t.Helper()
	resp, err := http.Post(base+"/v1/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	return decodeResponse(t, resp)
}

func get(t *testing.T, url string) testResponse {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	return decodeResponse(t, resp)
}

func decodeResponse(t *testing.T, resp *http.Response) testResponse {
	t.Helper()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := testResponse{code: resp.StatusCode, headers: resp.Header}
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatalf("bad response body %q: %v", b, err)
	}
	return out
}

func getRaw(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// waitStatus polls a run until it reaches a terminal state or the
// wanted state, failing the test on timeout.
func waitStatus(t *testing.T, base, id, want string, timeout time.Duration) testResponse {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st := get(t, base+"/v1/runs/"+id)
		if st.Status == want {
			return st
		}
		switch st.Status {
		case "done", "failed", "cancelled":
			t.Fatalf("run %s reached %q (error %q), want %q", id, st.Status, st.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("run %s still %q after %v, want %q", id, st.Status, timeout, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// metricsMap reads /v1/stats (the JSON object view of /metrics).
func metricsMap(t *testing.T, base string) map[string]uint64 {
	t.Helper()
	code, b := getRaw(t, base+"/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("/v1/stats: %d: %s", code, b)
	}
	var m map[string]uint64
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatalf("/v1/stats not a JSON object: %v", err)
	}
	return m
}

// blockingStub returns a run function that parks jobs until release is
// closed (or their context dies), plus a channel that reports each job
// starting.
func blockingStub(release chan struct{}) (func(context.Context, *job) ([]byte, error), chan string) {
	started := make(chan string, 64)
	return func(ctx context.Context, j *job) ([]byte, error) {
		started <- j.id
		select {
		case <-release:
			return []byte(`{"stub":"` + j.spec.Bench + `"}`), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}, started
}

// TestEndToEndSubmitPollResult runs a real small benchmark through the
// full HTTP path under both coherence modes.
func TestEndToEndSubmitPollResult(t *testing.T) {
	base := startServer(t, mustNew(t, Options{Workers: 2}))
	for _, mode := range []string{"ccsm", "direct-store"} {
		spec := fmt.Sprintf(`{"bench":"MT","mode":%q,"input":"small"}`, mode)
		sub := post(t, base, spec)
		if sub.code != http.StatusAccepted {
			t.Fatalf("submit (%s): %d", mode, sub.code)
		}
		st := waitStatus(t, base, sub.ID, "done", 60*time.Second)
		var res ResultJSON
		if err := json.Unmarshal(st.Result, &res); err != nil {
			t.Fatal(err)
		}
		if res.Bench != "MT" || res.Mode != mode || res.Input != "small" || res.Ticks == 0 {
			t.Fatalf("result (%s) = %+v", mode, res)
		}
		// The raw result endpoint serves the same document.
		code, raw := getRaw(t, base+"/v1/runs/"+sub.ID+"/result")
		if code != http.StatusOK || !bytes.Equal(raw, st.Result) {
			t.Fatalf("result endpoint (%d) diverges from status result", code)
		}
	}
}

// TestAllBenchmarksBothModes submits every Table II benchmark under
// both ccsm and direct-store (small inputs) and requires every job to
// complete with a well-formed result — the service equivalent of a
// full Fig. 4 sweep.
func TestAllBenchmarksBothModes(t *testing.T) {
	base := startServer(t, mustNew(t, Options{Workers: runtime.GOMAXPROCS(0), QueueDepth: 128}))
	type submitted struct{ id, code, mode string }
	var subs []submitted
	for _, code := range bench.Codes() {
		for _, mode := range []string{"ccsm", "direct-store"} {
			sub := post(t, base, fmt.Sprintf(`{"bench":%q,"mode":%q,"input":"small"}`, code, mode))
			if sub.code != http.StatusAccepted && sub.code != http.StatusOK {
				t.Fatalf("submit %s/%s: %d %s", code, mode, sub.code, sub.Error)
			}
			subs = append(subs, submitted{sub.ID, code, mode})
		}
	}
	for _, s := range subs {
		st := waitStatus(t, base, s.id, "done", 3*time.Minute)
		var res ResultJSON
		if err := json.Unmarshal(st.Result, &res); err != nil {
			t.Fatalf("%s/%s: %v", s.code, s.mode, err)
		}
		if res.Bench != s.code || res.Mode != s.mode || res.Ticks == 0 {
			t.Fatalf("%s/%s: bad result %+v", s.code, s.mode, res)
		}
	}
	m := metricsMap(t, base)
	if m["dstore_serve_jobs_executed_total"] != uint64(len(subs)) {
		t.Fatalf("executed %d jobs, want %d", m["dstore_serve_jobs_executed_total"], len(subs))
	}
}

// TestCacheHitDeterminism checks the content-addressed cache: an
// identical resubmission is answered from cache with byte-identical
// JSON and no second simulation, and a fresh server instance produces
// the same bytes again.
func TestCacheHitDeterminism(t *testing.T) {
	spec := `{"bench":"NN","mode":"ccsm","input":"small"}`
	base := startServer(t, mustNew(t, Options{Workers: 2}))

	first := post(t, base, spec)
	if first.code != http.StatusAccepted {
		t.Fatalf("first submit: %d", first.code)
	}
	waitStatus(t, base, first.ID, "done", 60*time.Second)
	_, result1 := getRaw(t, base+"/v1/runs/"+first.ID+"/result")

	second := post(t, base, spec)
	if second.code != http.StatusOK || !second.Cached || second.ID != first.ID {
		t.Fatalf("resubmission not a cache hit: code %d cached %v id %s", second.code, second.Cached, second.ID)
	}
	if !bytes.Equal([]byte(second.Result), result1) {
		t.Fatalf("cached result differs:\n first: %s\nsecond: %s", result1, second.Result)
	}
	m := metricsMap(t, base)
	if m["dstore_serve_jobs_executed_total"] != 1 {
		t.Fatalf("executed %d simulations, want exactly 1", m["dstore_serve_jobs_executed_total"])
	}
	if m["dstore_serve_cache_hits_total"] != 1 || m["dstore_serve_cache_misses_total"] != 1 {
		t.Fatalf("cache hits %d misses %d, want 1 and 1",
			m["dstore_serve_cache_hits_total"], m["dstore_serve_cache_misses_total"])
	}
	if _, text := getRaw(t, base+"/metrics"); !strings.Contains(string(text), "dstore_serve_cache_hits_total 1\n") {
		t.Fatalf("/metrics text lacks the cache hit:\n%s", text)
	}

	// Determinism across server instances: a brand-new daemon computes
	// the identical document.
	base2 := startServer(t, mustNew(t, Options{Workers: 2}))
	again := post(t, base2, spec)
	waitStatus(t, base2, again.ID, "done", 60*time.Second)
	_, result2 := getRaw(t, base2+"/v1/runs/"+again.ID+"/result")
	if !bytes.Equal(result1, result2) {
		t.Fatalf("fresh instance produced different bytes:\n first: %s\nsecond: %s", result1, result2)
	}
}

// TestCoalescing checks duplicate in-flight submissions attach to the
// running job instead of queueing a second simulation.
func TestCoalescing(t *testing.T) {
	release := make(chan struct{})
	stub, started := blockingStub(release)
	base := startServer(t, testServer(t, Options{Workers: 1, QueueDepth: 4}, stub))

	spec := `{"bench":"VA"}`
	first := post(t, base, spec)
	if first.code != http.StatusAccepted {
		t.Fatalf("submit: %d", first.code)
	}
	<-started
	dup := post(t, base, spec)
	if dup.code != http.StatusAccepted || dup.ID != first.ID || dup.Status != "running" {
		t.Fatalf("duplicate = %d %s %q, want 202 on the running job", dup.code, dup.ID, dup.Status)
	}
	if m := metricsMap(t, base); m["dstore_serve_coalesced_total"] != 1 {
		t.Fatalf("coalesced = %d, want 1", m["dstore_serve_coalesced_total"])
	}
	close(release)
	waitStatus(t, base, first.ID, "done", 10*time.Second)
	third := post(t, base, spec)
	if third.code != http.StatusOK || !third.Cached {
		t.Fatalf("post-completion submit = %d cached %v, want cache hit", third.code, third.Cached)
	}
}

// TestBackpressure fills the bounded queue and requires a 429 with a
// Retry-After hint.
func TestBackpressure(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	stub, started := blockingStub(release)
	base := startServer(t, testServer(t, Options{Workers: 1, QueueDepth: 1}, stub))

	a := post(t, base, `{"bench":"VA"}`)
	if a.code != http.StatusAccepted {
		t.Fatalf("a: %d", a.code)
	}
	<-started // a is running; the queue slot is free again
	b := post(t, base, `{"bench":"NN"}`)
	if b.code != http.StatusAccepted {
		t.Fatalf("b: %d", b.code)
	}
	c := post(t, base, `{"bench":"MM"}`)
	if c.code != http.StatusTooManyRequests {
		t.Fatalf("c = %d, want 429", c.code)
	}
	if ra := c.headers.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", ra)
	}
	if m := metricsMap(t, base); m["dstore_serve_rejected_total"] != 1 {
		t.Fatalf("rejected = %d, want 1", m["dstore_serve_rejected_total"])
	}
}

// TestGracefulShutdownDrains checks Shutdown's contract: new
// submissions get 503, queued jobs are cancelled, the in-flight job
// runs to completion and its result is served afterwards.
func TestGracefulShutdownDrains(t *testing.T) {
	release := make(chan struct{})
	stub, started := blockingStub(release)
	srv := testServer(t, Options{Workers: 1, QueueDepth: 4}, stub)
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	base := hs.URL

	a := post(t, base, `{"bench":"VA"}`)
	<-started // a running
	b := post(t, base, `{"bench":"NN"}`)
	c := post(t, base, `{"bench":"MM"}`)
	if a.code != http.StatusAccepted || b.code != http.StatusAccepted || c.code != http.StatusAccepted {
		t.Fatalf("submissions: %d %d %d", a.code, b.code, c.code)
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.Shutdown(context.Background()) }()

	// The queue drain happens before Shutdown blocks on the in-flight
	// job, so b and c flip to cancelled while a is still running.
	waitStatus(t, base, b.ID, "cancelled", 10*time.Second)
	waitStatus(t, base, c.ID, "cancelled", 10*time.Second)
	d := post(t, base, `{"bench":"BP"}`)
	if d.code != http.StatusServiceUnavailable {
		t.Fatalf("submit during shutdown = %d, want 503", d.code)
	}

	close(release)
	if err := <-errc; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	st := waitStatus(t, base, a.ID, "done", 10*time.Second)
	if len(st.Result) == 0 {
		t.Fatal("drained job has no result")
	}
}

// TestJobTimeout checks the per-job timeout cancels a stuck
// simulation and reports it as cancelled.
func TestJobTimeout(t *testing.T) {
	stub, started := blockingStub(make(chan struct{})) // never released
	base := startServer(t, testServer(t, Options{Workers: 1, JobTimeout: 30 * time.Millisecond}, stub))
	sub := post(t, base, `{"bench":"VA"}`)
	<-started
	st := waitStatus(t, base, sub.ID, "cancelled", 10*time.Second)
	if !strings.Contains(st.Error, "deadline") {
		t.Fatalf("error = %q, want a deadline error", st.Error)
	}
	if m := metricsMap(t, base); m["dstore_serve_jobs_cancelled_total"] != 1 {
		t.Fatalf("cancelled = %d, want 1", m["dstore_serve_jobs_cancelled_total"])
	}
}

// TestBadRequestsAndLookups exercises the 400/404/409 paths.
func TestBadRequestsAndLookups(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	stub, started := blockingStub(release)
	base := startServer(t, testServer(t, Options{Workers: 1}, stub))

	for _, body := range []string{
		`{"bench":"XX"}`,                        // unknown benchmark
		`{"bench":"MT","mode":"mesi"}`,          // unknown mode
		`{"bench":"MT","input":"medium"}`,       // unknown input
		`{"bench":"MT","config":{"workers":1}}`, // unknown override field
		`{"bench":"MT","config":{"sms":0}}`,     // invalid config value
		`not json`,                              //
	} {
		if r := post(t, base, body); r.code != http.StatusBadRequest {
			t.Fatalf("POST %s = %d, want 400", body, r.code)
		}
	}
	if r := get(t, base+"/v1/runs/deadbeef"); r.code != http.StatusNotFound {
		t.Fatalf("unknown id = %d, want 404", r.code)
	}
	// Result of an in-flight job is 409 with the live status, once
	// ResultWait expires.
	sub := post(t, base, `{"bench":"VA"}`)
	<-started
	code, body := getRaw(t, base+"/v1/runs/"+sub.ID+"/result")
	if code != http.StatusConflict {
		t.Fatalf("in-flight result = %d (%s), want 409", code, body)
	}
}

// parkedResult issues GET /result for id, lets it park on the
// in-flight job, runs act to move the job out of flight, and returns
// the answer. It fails the test unless the answer arrives well before
// ResultWait, i.e. on the job's exit rather than on the wait's expiry.
func parkedResult(t *testing.T, base, id string, act func()) (int, []byte) {
	t.Helper()
	type answer struct {
		code int
		body []byte
		err  error
	}
	got := make(chan answer, 1)
	start := time.Now()
	go func() {
		resp, err := http.Get(base + "/v1/runs/" + id + "/result")
		if err != nil {
			got <- answer{err: err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		got <- answer{resp.StatusCode, b, err}
	}()
	time.Sleep(50 * time.Millisecond) // let the GET reach the handler and park
	act()
	a := <-got
	if a.err != nil {
		t.Fatal(a.err)
	}
	if took := time.Since(start); took >= ResultWait/2 {
		t.Fatalf("GET /result answered after %v; want the job's exit, well before ResultWait (%v)", took, ResultWait)
	}
	return a.code, a.body
}

// TestResultWaitsForInflightJob checks that GET /result on a queued or
// running job answers as soon as the job leaves flight, on each exit:
// the run succeeds, the run fails, or Shutdown cancels the job while
// it is still queued.
func TestResultWaitsForInflightJob(t *testing.T) {
	t.Run("done", func(t *testing.T) {
		release := make(chan struct{})
		stub, started := blockingStub(release)
		base := startServer(t, testServer(t, Options{Workers: 1}, stub))
		sub := post(t, base, `{"bench":"VA"}`)
		<-started
		code, body := parkedResult(t, base, sub.ID, func() { close(release) })
		if code != http.StatusOK || string(body) != `{"stub":"VA"}` {
			t.Fatalf("result = %d %s, want 200 with the job's body", code, body)
		}
	})
	t.Run("failed", func(t *testing.T) {
		release := make(chan struct{})
		stub, started := blockingStub(release)
		failing := func(ctx context.Context, j *job) ([]byte, error) {
			if _, err := stub(ctx, j); err != nil {
				return nil, err
			}
			return nil, fmt.Errorf("synthetic simulation failure")
		}
		base := startServer(t, testServer(t, Options{Workers: 1}, failing))
		sub := post(t, base, `{"bench":"VA"}`)
		<-started
		code, body := parkedResult(t, base, sub.ID, func() { close(release) })
		if code != http.StatusConflict || !strings.Contains(string(body), `"status":"failed"`) {
			t.Fatalf("result = %d %s, want 409 failed", code, body)
		}
	})
	t.Run("cancelled", func(t *testing.T) {
		release := make(chan struct{})
		stub, started := blockingStub(release)
		srv := testServer(t, Options{Workers: 1, QueueDepth: 4}, stub)
		base := startServer(t, srv)
		post(t, base, `{"bench":"VA"}`)
		<-started // VA holds the only worker, so NN stays queued
		queued := post(t, base, `{"bench":"NN"}`)
		errc := make(chan error, 1)
		code, body := parkedResult(t, base, queued.ID, func() {
			go func() { errc <- srv.Shutdown(context.Background()) }()
		})
		close(release)
		if err := <-errc; err != nil {
			t.Fatalf("shutdown: %v", err)
		}
		if code != http.StatusConflict || !strings.Contains(string(body), `"status":"cancelled"`) {
			t.Fatalf("result = %d %s, want 409 cancelled", code, body)
		}
	})
}

// TestBenchmarksAndHealth checks the discovery and liveness endpoints.
func TestBenchmarksAndHealth(t *testing.T) {
	base := startServer(t, mustNew(t, Options{Workers: 1}))
	code, b := getRaw(t, base+"/v1/benchmarks")
	if code != http.StatusOK {
		t.Fatalf("/v1/benchmarks: %d", code)
	}
	var inv struct {
		Benchmarks []string `json:"benchmarks"`
		Modes      []string `json:"modes"`
		Table2     struct {
			Header []string   `json:"header"`
			Rows   [][]string `json:"rows"`
		} `json:"table2"`
	}
	if err := json.Unmarshal(b, &inv); err != nil {
		t.Fatal(err)
	}
	if len(inv.Benchmarks) != 22 || len(inv.Table2.Rows) != 22 || len(inv.Modes) != 3 {
		t.Fatalf("inventory: %d benchmarks, %d rows, %d modes", len(inv.Benchmarks), len(inv.Table2.Rows), len(inv.Modes))
	}
	code, b = getRaw(t, base+"/healthz")
	if code != http.StatusOK || !strings.Contains(string(b), `"ok"`) {
		t.Fatalf("/healthz: %d %s", code, b)
	}
	code, b = getRaw(t, base+"/metrics")
	if code != http.StatusOK || !strings.Contains(string(b), "dstore_serve_cache_hits_total") {
		t.Fatalf("/metrics: %d %s", code, b)
	}
}

// TestJobPanicRecovered checks a panicking simulation becomes a failed
// job carrying the stack trace while the worker stays alive for the
// next job.
func TestJobPanicRecovered(t *testing.T) {
	calls := 0
	stub := func(ctx context.Context, j *job) ([]byte, error) {
		calls++
		if calls == 1 {
			panic("synthetic engine explosion")
		}
		return []byte(`{"stub":true}`), nil
	}
	base := startServer(t, testServer(t, Options{Workers: 1}, stub))

	bad := post(t, base, `{"bench":"VA"}`)
	if bad.code != http.StatusAccepted {
		t.Fatalf("submit: %d", bad.code)
	}
	st := waitStatus(t, base, bad.ID, "failed", 10*time.Second)
	if !strings.Contains(st.Error, "synthetic engine explosion") ||
		!strings.Contains(st.Error, "goroutine") {
		t.Fatalf("error = %q, want panic message with stack trace", st.Error)
	}

	// The same worker must survive to run the next job.
	good := post(t, base, `{"bench":"NN"}`)
	waitStatus(t, base, good.ID, "done", 10*time.Second)

	m := metricsMap(t, base)
	if m["dstore_serve_jobs_panicked_total"] != 1 {
		t.Fatalf("panicked = %d, want 1", m["dstore_serve_jobs_panicked_total"])
	}
	if m["dstore_serve_jobs_failed_total"] != 1 {
		t.Fatalf("failed = %d, want 1", m["dstore_serve_jobs_failed_total"])
	}
}

package fleet

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"dstore/internal/serve"
)

func TestRetryAfterHintHTTPDate(t *testing.T) {
	max := 10 * time.Second
	if d := retryAfterHint("2", max); d != 2*time.Second {
		t.Fatalf("delta-seconds: %v", d)
	}
	if d := retryAfterHint("9999", max); d != max {
		t.Fatalf("delta-seconds above cap: %v", d)
	}
	// RFC 9110 §10.2.3: Retry-After may be an HTTP-date instead of
	// delta-seconds.
	//dstore:allow-wallclock an HTTP-date Retry-After is defined relative to real time
	date := time.Now().Add(3 * time.Second).UTC().Format(http.TimeFormat)
	if d := retryAfterHint(date, max); d < 500*time.Millisecond || d > 3*time.Second {
		t.Fatalf("HTTP-date 3s out: %v", d)
	}
	//dstore:allow-wallclock an HTTP-date Retry-After is defined relative to real time
	past := time.Now().Add(-time.Minute).UTC().Format(http.TimeFormat)
	if d := retryAfterHint(past, max); d != 50*time.Millisecond {
		t.Fatalf("past HTTP-date should floor at 50ms: %v", d)
	}
	if d := retryAfterHint("yesterday-ish", max); d != max {
		t.Fatalf("garbage should fall back to the cap: %v", d)
	}
	if d := retryAfterHint("", max); d != max {
		t.Fatalf("empty should fall back to the cap: %v", d)
	}
}

// TestCoordinatorLoadShedding pins graceful degradation: with
// MaxPending dispatches in flight, further submissions are shed with
// 429 + Retry-After instead of queueing without bound.
func TestCoordinatorLoadShedding(t *testing.T) {
	release := make(chan struct{})
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/runs" {
			<-release
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{}`))
	}))
	defer worker.Close()
	defer close(release)

	base, _ := startCoord(t, Options{
		Workers:         []string{worker.URL},
		MaxPending:      1,
		DispatchRetries: -1, // no retry rounds: the stub fails terminally fast
		JobDeadline:     time.Minute,
	})

	// First submission blocks inside the stub worker, pinning the
	// pending gauge at the cap.
	firstDone := make(chan struct{})
	go func() {
		defer close(firstDone)
		req, _ := http.NewRequest(http.MethodPost, base+"/v1/runs", strings.NewReader(specMT))
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	deadline := time.Now().Add(10 * time.Second) //dstore:allow-wallclock test polling deadline
	for coordStats(t, base)["coord_pending_jobs"] == 0 {
		if time.Now().After(deadline) { //dstore:allow-wallclock test polling deadline
			t.Fatal("first submission never became pending")
		}
		time.Sleep(2 * time.Millisecond) //dstore:allow-wallclock test polling
	}

	resp, body := postBody(t, base+"/v1/runs", `{"bench":"VA","mode":"direct-store"}`, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("at capacity: got %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	if st := coordStats(t, base); st["coord_shed_total"] == 0 {
		t.Fatalf("shed not counted: %v", st)
	}
	release <- struct{}{}
	<-firstDone
}

// drainNDJSONStream reads one NDJSON sweep stream to completion (or
// until onResult returns false, which closes the connection).
func drainNDJSONStream(t *testing.T, resp *http.Response, onResult func(Outcome) bool) ([]Outcome, *Report) {
	t.Helper()
	defer resp.Body.Close()
	var results []Outcome
	var report *Report
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
			if onResult != nil && !onResult(o) {
				return results, nil
			}
		case "report":
			report = &Report{}
			if err := json.Unmarshal(ev.Data, report); err != nil {
				t.Fatal(err)
			}
		}
	}
	return results, report
}

// TestSweepJournalCrashResume is the in-process crash-recovery proof:
// a coordinator closed mid-sweep leaves an incomplete journal; a new
// coordinator over the same journal dir resumes the sweep, re-runs
// only the unfinished jobs, replays the finished ones to reconnecting
// watchers, and completes with a clean report that survives a further
// restart.
func TestSweepJournalCrashResume(t *testing.T) {
	w := startWorker(t, serve.Options{})
	dir := t.TempDir()
	opt := Options{
		Workers:       []string{w},
		JournalDir:    dir,
		SweepWorkers:  1, // serialize so the crash point is mid-sweep
		ProbeInterval: time.Hour,
	}
	matrix := `{"bench":["MT","VA"],"mode":["direct-store"],"config":{"prefetch_depth":[0,1,2],"sms":[2,4]}}`
	const total = 12

	c1, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	hs1 := httptest.NewServer(c1.Handler())
	req, _ := http.NewRequest(http.MethodPost, hs1.URL+"/v1/sweeps", strings.NewReader(matrix))
	req.Header.Set("Content-Type", "application/json")
	resp, err := (&http.Client{}).Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("sweep submit: %d: %s", resp.StatusCode, b)
	}
	sweepID := resp.Header.Get("X-Dstore-Sweep")
	if sweepID == "" {
		t.Fatal("no sweep id on the stream response")
	}
	// "Crash" after two streamed results: Close cancels the dispatch
	// context, aborting the sweep with its journal report-less.
	var preCrash []Outcome
	preCrash, rep := drainNDJSONStream(t, resp, func(o Outcome) bool {
		preCrash = append(preCrash, o)
		if len(preCrash) == 2 {
			go c1.Close()
		}
		return true
	})
	if rep != nil {
		t.Fatalf("sweep finished before the crash point (%d results)", len(preCrash))
	}
	if len(preCrash) < 2 || len(preCrash) >= total {
		t.Fatalf("crash point off: %d results streamed", len(preCrash))
	}
	hs1.Close()
	c1.Close()

	// Restart over the same journal dir: the incomplete sweep must
	// resume by itself.
	c2, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	hs2 := httptest.NewServer(c2.Handler())
	defer hs2.Close()
	defer c2.Close()

	st := coordStats(t, hs2.URL)
	if st["fleet_sweeps_resumed_total"] != 1 {
		t.Fatalf("sweeps resumed = %d, want 1: %v", st["fleet_sweeps_resumed_total"], st)
	}
	replayed := st["fleet_jobs_replayed_total"]
	if replayed < uint64(len(preCrash)) || replayed >= total {
		t.Fatalf("jobs replayed = %d, want within [%d, %d)", replayed, len(preCrash), total)
	}

	// A full reconnect (from seq 0) replays history and follows the
	// resumed dispatch to the report.
	req, _ = http.NewRequest(http.MethodGet, hs2.URL+"/v1/sweeps/"+sweepID+"/stream", nil)
	resp, err = (&http.Client{}).Do(req)
	if err != nil {
		t.Fatal(err)
	}
	all, report := drainNDJSONStream(t, resp, nil)
	if report == nil || report.Completed != total || report.Failed != 0 {
		t.Fatalf("resumed sweep report: %+v", report)
	}
	if len(all) != total {
		t.Fatalf("resumed stream carried %d results, want %d", len(all), total)
	}
	seen := map[string]bool{}
	for i, o := range all {
		if o.Seq != i {
			t.Fatalf("result %d carries seq %d", i, o.Seq)
		}
		if seen[o.ID] {
			t.Fatalf("job %.8s appeared twice after resume", o.ID)
		}
		seen[o.ID] = true
	}
	// The pre-crash prefix must replay identically: same jobs at the
	// same seqs with the same bytes, so a client's resume token from
	// before the crash stays coherent after it.
	for i, o := range preCrash {
		if all[i].ID != o.ID || !bytes.Equal(all[i].Result, o.Result) {
			t.Fatalf("replayed seq %d diverged from the pre-crash stream", i)
		}
	}
	// New dispatches happened only for the jobs with no outcome on
	// disk.
	st = coordStats(t, hs2.URL)
	if st["fleet_jobs_completed_total"] != total-replayed {
		t.Fatalf("resumed coordinator completed %d jobs, want %d: %v",
			st["fleet_jobs_completed_total"], total-replayed, st)
	}

	// SSE reconnect with Last-Event-ID resumes after the given seq.
	req, _ = http.NewRequest(http.MethodGet, hs2.URL+"/v1/sweeps/"+sweepID+"/stream", nil)
	req.Header.Set("Accept", "text/event-stream")
	req.Header.Set("Last-Event-ID", strconv.Itoa(total-3))
	resp, err = (&http.Client{}).Do(req)
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

	// And NDJSON ?from=N resumes at N.
	req, _ = http.NewRequest(http.MethodGet, hs2.URL+"/v1/sweeps/"+sweepID+"/stream?from="+strconv.Itoa(total-1), nil)
	resp, err = (&http.Client{}).Do(req)
	if err != nil {
		t.Fatal(err)
	}
	tail, tailRep := drainNDJSONStream(t, resp, nil)
	if len(tail) != 1 || tail[0].Seq != total-1 || tailRep == nil {
		t.Fatalf("?from resume returned %d results (rep %v)", len(tail), tailRep != nil)
	}

	// The journal now holds the report: a third coordinator restores
	// the sweep read-only, report intact, without resuming anything.
	hs2.Close()
	c2.Close()
	c3, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	hs3 := httptest.NewServer(c3.Handler())
	defer hs3.Close()
	defer c3.Close()
	st = coordStats(t, hs3.URL)
	if st["fleet_sweeps_resumed_total"] != 0 {
		t.Fatalf("completed sweep resumed dispatch: %v", st)
	}
	code, b := getBody(t, hs3.URL+"/v1/sweeps/"+sweepID)
	if code != http.StatusOK || !strings.Contains(string(b), `"done":true`) {
		t.Fatalf("restored sweep status: %d: %s", code, b)
	}
	code, b = getBody(t, hs3.URL+"/v1/sweeps/"+sweepID+"/report")
	if code != http.StatusOK || len(b) == 0 {
		t.Fatalf("restored sweep report: %d: %s", code, b)
	}
}

// parseSSE reads a Server-Sent Events stream, returning the ids of
// result events and the ordered event names.
func parseSSE(t *testing.T, resp *http.Response) ([]int, []string) {
	t.Helper()
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type: %q", ct)
	}
	var ids []int
	var events []string
	id, event := -1, ""
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			n, err := strconv.Atoi(line[len("id: "):])
			if err != nil {
				t.Fatalf("bad SSE id line %q", line)
			}
			id = n
		case strings.HasPrefix(line, "event: "):
			event = line[len("event: "):]
		case line == "":
			if event != "" {
				events = append(events, event)
				if event == "result" {
					ids = append(ids, id)
				}
			}
			id, event = -1, ""
		}
	}
	return ids, events
}

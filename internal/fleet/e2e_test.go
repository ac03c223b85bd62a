package fleet

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestFleetE2E is the whole-system proof: real coordinator and worker
// processes, a ≥1000-job sweep matrix, a worker SIGKILLed mid-sweep,
// every result byte-identical to a single-process oracle, and the
// killed worker restarted over its persistent store serving a cached
// result and a snapshot-warm job without re-simulating.
func TestFleetE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e skipped in -short mode")
	}
	serveBin, coordBin := buildBinaries(t)
	client := &http.Client{Timeout: time.Minute}

	// Three workers, each with its own persistent store.
	stores := make([]string, 3)
	workers := make([]*proc, 3)
	for i := range workers {
		stores[i] = filepath.Join(t.TempDir(), fmt.Sprintf("store%d", i))
		workers[i] = startProc(t, serveBin, "dstore-serve listening on ",
			"-addr", "127.0.0.1:0", "-workers", "2", "-queue", "256", "-store", stores[i])
	}

	// Coordinator with two static workers; the third registers itself
	// through the API.
	coord := startProc(t, coordBin, "dstore-coord listening on ",
		"-addr", "127.0.0.1:0",
		"-workers", workers[0].url+","+workers[1].url,
		"-probe-interval", "300ms",
		"-sweep-workers", "64")
	resp, err := client.Post(coord.url+"/v1/workers", "application/json",
		strings.NewReader(fmt.Sprintf(`{"url":%q}`, workers[2].url)))
	if err != nil {
		t.Fatal(err)
	}
	regBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(regBody), `"healthy":true`) {
		t.Fatalf("worker registration: %d: %s", resp.StatusCode, regBody)
	}

	// 4 benches x 5 prefetch depths x 5 warp widths x 10 SM counts =
	// exactly 1000 distinct jobs. The three config axes are all
	// prefix-irrelevant, so each bench's produce phase simulates once
	// per worker and the snapshot store absorbs the rest.
	matrix := `{
		"bench": ["MT", "VA", "BL", "NN"],
		"mode": ["direct-store"],
		"config": {
			"prefetch_depth": [0, 1, 2, 3, 4],
			"max_warps_per_sm": [4, 8, 12, 16, 24],
			"sms": [2, 4, 6, 8, 10, 12, 14, 16, 18, 20]
		}
	}`
	const wantJobs = 1000

	// Stream the sweep; SIGKILL worker 1 once enough of it is in
	// flight that a healthy share of its jobs are still pending.
	req, err := http.NewRequest(http.MethodPost, coord.url+"/v1/sweeps", strings.NewReader(matrix))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	sweepResp, err := (&http.Client{}).Do(req) // no timeout: the stream lives for the whole sweep
	if err != nil {
		t.Fatal(err)
	}
	defer sweepResp.Body.Close()
	if sweepResp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(sweepResp.Body)
		t.Fatalf("sweep submit: %d: %s", sweepResp.StatusCode, b)
	}

	var (
		results []Outcome
		report  *Report
		killed  = false
	)
	sc := bufio.NewScanner(sweepResp.Body)
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
			if !killed && len(results) == 150 {
				killed = true
				if err := workers[1].cmd.Process.Kill(); err != nil {
					t.Fatalf("SIGKILL worker 1: %v", err)
				}
				t.Logf("killed worker 1 (%s) after %d streamed results", workers[1].url, len(results))
			}
		case "report":
			report = &Report{}
			if err := json.Unmarshal(ev.Data, report); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !killed {
		t.Fatal("sweep finished before the kill point — matrix too small to exercise failover")
	}
	if len(results) != wantJobs {
		t.Fatalf("streamed %d results, want %d", len(results), wantJobs)
	}
	if report == nil || report.Completed != wantJobs || report.Failed != 0 {
		t.Fatalf("report after mid-sweep kill: %+v", report)
	}
	for _, o := range results {
		if o.Error != "" {
			t.Fatalf("job %.8s failed despite failover: %s", o.ID, o.Error)
		}
	}
	if report.Failovers == 0 {
		t.Fatal("no failovers recorded — the kill had no observable effect")
	}
	var stats map[string]uint64
	if err := getJSONInto(client, coord.url+"/v1/stats", &stats); err != nil {
		t.Fatal(err)
	}
	if stats["fleet_jobs_failed_total"] != 0 || stats["fleet_dispatch_failovers_total"] == 0 {
		t.Fatalf("coordinator stats after kill: %v", stats)
	}

	// Oracle: one fresh single-process worker (memory only) re-runs
	// every canonical spec; each fleet result must match byte for
	// byte.
	oracle := startProc(t, serveBin, "dstore-serve listening on ",
		"-addr", "127.0.0.1:0", "-workers", "2", "-queue", "256")
	oracleResults := runAllOn(t, client, oracle.url, results)
	for _, o := range results {
		want, ok := oracleResults[o.ID]
		if !ok {
			t.Fatalf("oracle produced no result for %.8s", o.ID)
		}
		if !bytes.Equal(o.Result, want) {
			t.Fatalf("job %.8s differs from oracle:\n  fleet:  %s\n  oracle: %s", o.ID, o.Result, want)
		}
	}

	// Restart the killed worker over its surviving store: a job it
	// completed before the kill must be served from disk without
	// re-simulating, and a brand-new job in a known prefix family must
	// restore its produce phase from a disk snapshot.
	var fromKilled *Outcome
	for i := range results {
		if results[i].Worker == workers[1].url {
			fromKilled = &results[i]
			break
		}
	}
	if fromKilled == nil {
		t.Fatal("killed worker served no streamed results — cannot exercise restart")
	}
	restarted := startProc(t, serveBin, "dstore-serve listening on ",
		"-addr", "127.0.0.1:0", "-workers", "2", "-store", stores[1])

	resp, err = client.Post(restarted.url+"/v1/runs", "application/json", bytes.NewReader(fromKilled.Spec))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var rr runResp
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !rr.Cached {
		t.Fatalf("restarted worker did not serve %.8s from its store: %d %s", fromKilled.ID, resp.StatusCode, body)
	}
	if !bytes.Equal(rr.Result, fromKilled.Result) {
		t.Fatalf("restarted worker served different bytes for %.8s", fromKilled.ID)
	}
	var wstats map[string]uint64
	if err := getJSONInto(client, restarted.url+"/v1/stats", &wstats); err != nil {
		t.Fatal(err)
	}
	if wstats["dstore_serve_jobs_executed_total"] != 0 {
		t.Fatalf("restarted worker re-simulated the cached job: %v", wstats)
	}
	if wstats["dstore_store_disk_hits_total"] == 0 {
		t.Fatalf("no disk hit recorded for the restart-served result: %v", wstats)
	}

	// Snapshot-warm: a config outside the sweep matrix but inside a
	// swept prefix family (the warp/SM/prefetch axes are stripped from
	// the prefix key) — the produce phase must restore from disk.
	var warmDoc struct {
		Bench string `json:"bench"`
	}
	if err := json.Unmarshal(fromKilled.Result, &warmDoc); err != nil {
		t.Fatal(err)
	}
	warmSpec := fmt.Sprintf(`{"bench":%q,"mode":"direct-store","input":"small","config":{"max_warps_per_sm":64}}`, warmDoc.Bench)
	warmID, warmBody := runToDone(t, client, restarted.url, warmSpec)
	if err := getJSONInto(client, restarted.url+"/v1/stats", &wstats); err != nil {
		t.Fatal(err)
	}
	if wstats["dstore_serve_snapshot_hits_total"] == 0 {
		t.Fatalf("warm job %.8s did not restore its produce phase from the disk snapshot: %v", warmID, wstats)
	}
	if wstats["dstore_serve_jobs_executed_total"] != 1 {
		t.Fatalf("restarted worker executed %d jobs, want exactly the warm one", wstats["dstore_serve_jobs_executed_total"])
	}
	// And the warm result still matches a fully cold oracle run.
	oracleWarmID, oracleWarm := runToDone(t, client, oracle.url, warmSpec)
	if warmID != oracleWarmID || !bytes.Equal(warmBody, oracleWarm) {
		t.Fatalf("snapshot-warm result differs from cold oracle for %.8s", warmID)
	}
}

// buildBinaries compiles dstore-serve and dstore-coord once into a
// temp dir. The children run uninstrumented — the race detector on
// the test binary still covers the streaming client paths.
func buildBinaries(t *testing.T) (serveBin, coordBin string) {
	t.Helper()
	dir := t.TempDir()
	serveBin = filepath.Join(dir, "dstore-serve")
	coordBin = filepath.Join(dir, "dstore-coord")
	for bin, pkg := range map[string]string{serveBin: "./cmd/dstore-serve", coordBin: "./cmd/dstore-coord"} { //dstore:allow-maprange independent builds, order free
		cmd := exec.Command("go", "build", "-o", bin, pkg)
		cmd.Dir = repoRoot(t)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, out)
		}
	}
	return serveBin, coordBin
}

func repoRoot(t *testing.T) string {
	t.Helper()
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Dir(strings.TrimSpace(string(out)))
}

// proc is one child daemon with its parsed base URL.
type proc struct {
	cmd *exec.Cmd
	url string
}

var addrRe = regexp.MustCompile(`listening on (\S+?:\d+)`)

// startProc launches a daemon and waits for its "listening on"
// banner on stderr to learn the bound port.
func startProc(t *testing.T, bin, banner string, args ...string) *proc {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stdout = io.Discard
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &proc{cmd: cmd}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_, _ = cmd.Process.Wait()
	})

	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if strings.Contains(line, banner) {
				if m := addrRe.FindStringSubmatch(line); m != nil {
					select {
					case addrCh <- m[1]:
					default:
					}
				}
			}
		}
	}()
	select {
	case addr := <-addrCh:
		p.url = "http://" + addr
	case <-time.After(30 * time.Second):
		t.Fatalf("%s did not announce a listen address", bin)
	}
	return p
}

func getJSONInto(c *http.Client, url string, out any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %d: %s", url, resp.StatusCode, b)
	}
	return json.Unmarshal(b, out)
}

// runToDone submits a spec and polls it to completion.
func runToDone(t *testing.T, c *http.Client, base, spec string) (string, []byte) {
	t.Helper()
	resp, err := c.Post(base+"/v1/runs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var rr runResp
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatalf("submit %s: %v: %s", spec, err, body)
	}
	switch resp.StatusCode {
	case http.StatusOK:
		return rr.ID, rr.Result
	case http.StatusAccepted:
	default:
		t.Fatalf("submit %s: %d: %s", spec, resp.StatusCode, body)
	}
	b, err := awaitBody(c, base, rr.ID)
	if err != nil {
		t.Fatal(err)
	}
	return rr.ID, b
}

// awaitBody GETs a job's result until the worker stops answering that
// the job is in flight; each GET already waits up to serve.ResultWait.
func awaitBody(c *http.Client, base, id string) ([]byte, error) {
	for {
		resp, err := c.Get(base + "/v1/runs/" + id + "/result")
		if err != nil {
			return nil, err
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		if resp.StatusCode == http.StatusOK {
			return b, nil
		}
		var st runResp
		if resp.StatusCode != http.StatusConflict || json.Unmarshal(b, &st) != nil ||
			(st.Status != "queued" && st.Status != "running") {
			return nil, fmt.Errorf("job %s: %d: %s", id, resp.StatusCode, b)
		}
	}
}

// runAllOn replays every outcome's canonical spec on one server with
// bounded concurrency, returning result bodies by job ID.
func runAllOn(t *testing.T, c *http.Client, base string, outcomes []Outcome) map[string][]byte {
	t.Helper()
	var mu sync.Mutex
	out := make(map[string][]byte, len(outcomes))
	feed := make(chan Outcome)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for o := range feed {
				id, body := oracleRun(t, c, base, o)
				mu.Lock()
				out[id] = body
				mu.Unlock()
			}
		}()
	}
	for _, o := range outcomes {
		feed <- o
	}
	close(feed)
	wg.Wait()
	return out
}

// oracleRun pushes one spec through the oracle, tolerating 429
// backpressure.
func oracleRun(t *testing.T, c *http.Client, base string, o Outcome) (string, []byte) {
	for {
		resp, err := c.Post(base+"/v1/runs", "application/json", bytes.NewReader(o.Spec))
		if err != nil {
			t.Error(err)
			return o.ID, nil
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			time.Sleep(50 * time.Millisecond) //dstore:allow-wallclock oracle backpressure
			continue
		}
		var rr runResp
		if err := json.Unmarshal(body, &rr); err != nil {
			t.Errorf("oracle submit: %v: %s", err, body)
			return o.ID, nil
		}
		if resp.StatusCode == http.StatusOK {
			return rr.ID, rr.Result
		}
		b, err := awaitBody(c, base, rr.ID)
		if err != nil {
			t.Errorf("oracle %v", err)
		}
		return rr.ID, b
	}
}

package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"dstore/internal/bench"
	"dstore/internal/fleet"
	"dstore/internal/serve"
)

// fleetWorkerNames are the workers' base URLs as the coordinator knows
// them. A custom dialer maps the names to loopback listeners, so ring
// placement, which hashes the URLs, is the same on every run.
var fleetWorkerNames = []string{"http://w0", "http://w1"}

// fleetSweep runs two sweeps through a coordinator with default options
// and two one-slot dstore-serve workers over loopback TCP. Sweep 1 is
// every benchmark × {ccsm, direct-store} × small × sms {8, 16} ×
// prefetch_depth {0, 2}; sweep 2 swaps the mode axis to {direct-store,
// standalone}, so half its jobs repeat sweep 1's and ring affinity
// should send each to the worker that cached it. Each round starts
// from a fresh fleet. The seed permutes the bench axis.
type fleetSweep struct {
	sweeps [2][]byte // POST /v1/sweeps documents
	client *http.Client
	book   *resultBook
	node   *fleetNode
	timer  *requestTimer // counts worker status polls in a traced round
}

// fleetNode is a running coordinator and its workers.
type fleetNode struct {
	workers []*serveNode
	coord   *fleet.Coordinator
	lb      *loopback
	tr      *http.Transport
}

func startFleet(mw func(http.Handler) http.Handler) (*fleetNode, error) {
	n := &fleetNode{}
	addrs := make(map[string]string)
	for i, name := range fleetWorkerNames {
		w, err := startServe(serve.Options{Workers: 1, Name: fmt.Sprintf("w%d", i)}, mw)
		if err != nil {
			n.stop()
			return nil, err
		}
		n.workers = append(n.workers, w)
		addrs[name[len("http://"):]+":80"] = w.lb.ln.Addr().String()
	}
	var d net.Dialer
	n.tr = &http.Transport{DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
		if real, ok := addrs[addr]; ok {
			addr = real
		}
		return d.DialContext(ctx, network, addr)
	}}
	coord, err := fleet.New(fleet.Options{Workers: fleetWorkerNames, Transport: n.tr, Clock: wallClock})
	if err != nil {
		n.stop()
		return nil, err
	}
	n.coord = coord
	if n.lb, err = listen(coord.Handler()); err != nil {
		n.stop()
		return nil, err
	}
	return n, nil
}

// stop tears the fleet down, front to back.
func (n *fleetNode) stop() error {
	var err error
	if n.lb != nil {
		err = n.lb.close()
	}
	if n.coord != nil {
		n.coord.Close()
	}
	if n.tr != nil {
		n.tr.CloseIdleConnections()
	}
	for _, w := range n.workers {
		if werr := w.stop(); err == nil {
			err = werr
		}
	}
	return err
}

func (f *fleetSweep) setup(e *env) error {
	codes := bench.Codes()
	config := map[string][]int{"sms": {8, 16}, "prefetch_depth": {0, 2}}
	if e.scale == tinyScale {
		codes, config = []string{"HT", "MT"}, map[string][]int{"sms": {8, 16}}
	}
	rng := e.rng(0)
	rng.Shuffle(len(codes), func(i, j int) { codes[i], codes[j] = codes[j], codes[i] })
	for i, modes := range [2][]string{{"ccsm", "direct-store"}, {"direct-store", "standalone"}} {
		b, err := json.Marshal(map[string]any{"bench": codes, "mode": modes, "input": []string{"small"}, "config": config})
		if err != nil {
			return err
		}
		f.sweeps[i] = b
	}
	f.client = &http.Client{}
	f.book = newResultBook()
	var err error
	f.node, err = startFleet(nil)
	return err
}

func (f *fleetSweep) round(e *env, tr *tracer) (*roundStats, error) {
	rs := newRoundStats()
	if tr != nil || f.node == nil {
		if err := f.stopFleet(); err != nil {
			return nil, err
		}
		var mw func(http.Handler) http.Handler
		if tr != nil {
			f.timer = &requestTimer{}
			mw = f.timer.wrap
		}
		var err error
		if f.node, err = startFleet(mw); err != nil {
			return nil, err
		}
	}

	var ids [2]string
	var reports [2]*fleet.Report
	var executed [2]float64
	rs.start = time.Now()
	for i, doc := range f.sweeps {
		t := tr.now()
		id, rep, err := f.sweep(doc, i == 0, rs)
		tr.add("fleet.sweep", 0, t)
		if err != nil {
			return nil, err
		}
		ids[i], reports[i] = id, rep
		if tr != nil {
			t = tr.now()
			executed[i], err = f.executed()
			tr.add("fleet.stats", 0, t)
			if err != nil {
				return nil, err
			}
		}
	}
	rs.wall = time.Since(rs.start)
	rs.items = float64(rs.attempted)
	if tr != nil {
		if err := f.scrape(rs, ids, reports, executed); err != nil {
			return nil, err
		}
	}
	return rs, f.stopFleet()
}

// sweep posts one sweep matrix and reads its NDJSON stream to the end,
// timing each outcome from the submission. It returns the sweep's ID
// and closing report.
func (f *fleetSweep) sweep(doc []byte, first bool, rs *roundStats) (string, *fleet.Report, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, f.node.lb.url+"/v1/sweeps", bytes.NewReader(doc))
	if err != nil {
		return "", nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	t0 := time.Now()
	resp, err := f.client.Do(req)
	if err != nil {
		return "", nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", nil, fmt.Errorf("POST /v1/sweeps: %d", resp.StatusCode)
	}
	var rep *fleet.Report
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		var ev struct {
			Event string          `json:"event"`
			Data  json.RawMessage `json:"data"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return "", nil, err
		}
		switch ev.Event {
		case "result":
			d := time.Since(t0)
			if first && len(rs.lat["job"]) == 0 {
				rs.layer["fleet.first_result_ms"] = ms(d)
			}
			rs.op(f.outcome(ev.Data))
			rs.addLat("job", d)
		case "report":
			rep = &fleet.Report{}
			if err := json.Unmarshal(ev.Data, rep); err != nil {
				return "", nil, err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return "", nil, err
	}
	if rep == nil {
		return "", nil, fmt.Errorf("sweep stream ended without a report")
	}
	return resp.Header.Get("X-Dstore-Sweep"), rep, nil
}

// outcome checks one streamed sweep result.
func (f *fleetSweep) outcome(data []byte) error {
	var o fleet.Outcome
	if err := json.Unmarshal(data, &o); err != nil {
		return err
	}
	if o.Error != "" {
		return fmt.Errorf("sweep job %.12s: %s", o.ID, o.Error)
	}
	var spec serve.JobSpec
	if err := json.Unmarshal(o.Spec, &spec); err != nil {
		return err
	}
	return f.book.record(o.ID, spec, o.Result)
}

// executed sums the simulations the workers have run so far.
func (f *fleetSweep) executed() (float64, error) {
	var n float64
	for _, w := range f.node.workers {
		st, err := stats(f.client, w.lb.url)
		if err != nil {
			return 0, err
		}
		n += st["dstore_serve_jobs_executed_total"]
	}
	return n, nil
}

// scrape records a traced round's per-layer view: dispatch latency,
// polls, cache and snapshot behaviour, load balance, and span totals
// from each sweep's stitched trace.
func (f *fleetSweep) scrape(rs *roundStats, ids [2]string, reports [2]*fleet.Report, executed [2]float64) error {
	base := f.node.lb.url
	mean, err := histMean(f.client, base, "fleet_dispatch_latency_ns")
	if err != nil {
		return err
	}
	cst, err := stats(f.client, base)
	if err != nil {
		return err
	}
	var snapHits, snapMisses float64
	for _, w := range f.node.workers {
		st, err := stats(f.client, w.lb.url)
		if err != nil {
			return err
		}
		snapHits += st["dstore_serve_snapshot_hits_total"]
		snapMisses += st["dstore_serve_snapshot_misses_total"]
	}
	jobs := float64(len(rs.lat["job"]))
	rs.layer["fleet.dispatch_mean_ms"] = mean / 1e6
	rs.layer["fleet.retry_rounds"] = cst["fleet_dispatch_retry_rounds_total"]
	rs.layer["fleet.poll_calls_per_job"] = ratio(float64(f.timer.polls.Load()), jobs)
	rs.layer["fleet.snapshot_hit_ratio"] = ratio(snapHits, snapHits+snapMisses)
	rs.layer["fleet.cached_frac"] = 1 - ratio(executed[1]-executed[0], float64(reports[1].Total))

	load := make(map[string]float64)
	var failovers, total float64
	for _, rep := range reports {
		failovers += float64(rep.Failovers)
		for _, w := range rep.Workers {
			load[w.URL] += float64(w.Jobs)
			total += float64(w.Jobs)
		}
	}
	var most float64
	for _, n := range load {
		most = max(most, n)
	}
	rs.layer["fleet.failovers"] = failovers
	rs.layer["fleet.worker_load_skew"] = ratio(most, total/float64(len(fleetWorkerNames)))

	spans := make(map[string]float64)
	for _, id := range ids {
		if err := f.spanTotals(id, spans); err != nil {
			return err
		}
	}
	rs.layer["span.queue_wait_s"] = spans["queue-wait"]
	rs.layer["span.simulate_s"] = spans["simulate"]
	rs.layer["span.dispatch_overhead_s"] = spans["dispatch"] - spans["simulate"] - spans["worker queue-wait"]
	return nil
}

// spanTotals adds a sweep's stitched-trace span durations, in seconds,
// to totals by span name; worker-side queue waits are also kept apart
// under "worker queue-wait".
func (f *fleetSweep) spanTotals(id string, totals map[string]float64) error {
	code, _, body, err := fetch(context.Background(), f.client, http.MethodGet, f.node.lb.url+"/v1/sweeps/"+id+"/trace", nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET /v1/sweeps/%.12s/trace: %d", id, code)
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Dur  float64           `json:"dur"`
			Pid  int               `json:"pid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return err
	}
	process := make(map[int]string)
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" {
			process[ev.Pid] = ev.Args["name"]
		}
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		s := ev.Dur / 1e9 // the daemons' clock counts nanoseconds
		totals[ev.Name] += s
		if ev.Name == "queue-wait" && process[ev.Pid] != "coordinator" {
			totals["worker queue-wait"] += s
		}
	}
	return nil
}

func (f *fleetSweep) stopFleet() error {
	if f.node == nil {
		return nil
	}
	err := f.node.stop()
	f.node = nil
	return err
}

func (f *fleetSweep) verify(e *env) []string { return f.book.verifySample(e.rng(1)) }

func (f *fleetSweep) layers(_ *env, untraced []*roundStats, traced *roundStats, _ *tracer, ls *layerSet) error {
	if err := ls.take(traced.layer, "fleet.dispatch_mean_ms", "fleet.retry_rounds", "fleet.poll_calls_per_job",
		"fleet.snapshot_hit_ratio", "fleet.cached_frac", "fleet.failovers", "fleet.worker_load_skew",
		"span.queue_wait_s", "span.simulate_s", "span.dispatch_overhead_s"); err != nil {
		return err
	}
	ls.m["fleet.first_result_ms"] = median(perRound(untraced, "fleet.first_result_ms"))
	jobs := pooled(untraced, "job")
	ls.pct("fleet.job_p50_ms", jobs, 50)
	ls.pct("fleet.job_p90_ms", jobs, 90)
	return nil
}

func (f *fleetSweep) close() {
	if err := f.stopFleet(); err != nil {
		fmt.Fprintln(os.Stderr, "fleet-sweep: stop:", err)
	}
	if f.client != nil {
		f.client.CloseIdleConnections()
	}
}

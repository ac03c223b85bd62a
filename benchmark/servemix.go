package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"dstore/internal/bench"
	"dstore/internal/core"
	"dstore/internal/serve"
	"dstore/internal/store"
)

// jobClass is what a serve-mix job should exercise.
type jobClass int

const (
	// coldJob has a warm-up prefix no earlier job shared: it simulates
	// every phase and writes its result and snapshot through to disk.
	coldJob jobClass = iota
	// warmJob is a cold job's spec with one GPU-only override: its CPU
	// produce phase is restored from the cold job's snapshot.
	warmJob
	// hitJob repeats a finished job: answered from the result cache.
	hitJob
	// diskJob repeats a finished job after a restart: answered from the
	// store.
	diskJob
)

var classNames = [...]string{"cold", "warm", "hit", "disk_hit"}

// Closed-loop load: mixClients clients each wait for their job's result
// before taking the next, against a daemon simulating on mixWorkers
// goroutines — the two host threads.
const (
	mixClients   = 2
	mixWorkers   = 2
	pollInterval = time.Millisecond
	jobTimeout   = 60 * time.Second
	// snapSamples is how many of the workload's prefixes the snapshot
	// and store layers are timed on.
	snapSamples = 20
)

// Serve-mix cold jobs cross these benchmarks (all with a CPU produce
// phase and a small input that simulates in tens of milliseconds) with
// every mode and GPU L2 replacement policy: 120 distinct prefixes.
var (
	mixBenches  = []string{"BP", "BL", "CH", "GC", "HT", "LV", "MT", "NN", "SP", "VA"}
	mixModes    = []string{"ccsm", "direct-store", "standalone"}
	mixPolicies = []string{"lru", "plru", "random", "srrip"}
)

type serveJob struct {
	class jobClass
	spec  serve.JobSpec
	id    string
	body  []byte // the POST /v1/runs document
}

func newServeJob(class jobClass, spec serve.JobSpec) (serveJob, error) {
	norm, err := spec.Normalize()
	if err != nil {
		return serveJob{}, err
	}
	id, err := norm.ID()
	if err != nil {
		return serveJob{}, err
	}
	body, err := json.Marshal(norm)
	return serveJob{class: class, spec: norm, id: id, body: body}, err
}

// mixSize fixes a plan's shape: batch 0 holds cold jobs only, middle
// batches hold cold jobs, the two warm twins of every cold job of the
// batch before and hits on jobs finished in earlier batches, and the
// last batch holds warm jobs and hits only. The disk batch follows the
// restart.
type mixSize struct{ batches, coldPerBatch, hitsPerBatch, disk int }

var mixSizes = map[scale]mixSize{
	// 120 cold, 240 warm, 1500 hits, 200 disk hits.
	fullScale: {batches: 6, coldPerBatch: 24, hitsPerBatch: 300, disk: 200},
	tinyScale: {batches: 3, coldPerBatch: 2, hitsPerBatch: 10, disk: 4},
}

// mixPlan is one round's job stream. Every job in a batch can run
// concurrently with every other: no two share a spec or a warm-up
// prefix, and hits name only jobs finished in earlier batches. That
// makes each job's class certain, whatever order the clients take them.
type mixPlan struct {
	batches [][]serveJob
	disk    []serveJob
	colds   []serve.JobSpec
}

// planMix generates the job stream from rng: which prefixes go to which
// batch, which finished jobs each hit and disk hit repeats, and the
// order within each batch.
func planMix(rng *rand.Rand, sz mixSize) (mixPlan, error) {
	var specs []serve.JobSpec
	for _, b := range mixBenches {
		for _, mode := range mixModes {
			for _, p := range mixPolicies {
				specs = append(specs, serve.JobSpec{Bench: b, Mode: mode, Config: &serve.ConfigOverride{GPUL2Policy: &p}})
			}
		}
	}
	rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	nCold := (sz.batches - 1) * sz.coldPerBatch
	if nCold > len(specs) {
		return mixPlan{}, fmt.Errorf("serve-mix: %d cold jobs wanted, %d prefixes exist", nCold, len(specs))
	}
	plan := mixPlan{colds: specs[:nCold]}
	sms, depth := 8, 2
	var done []serveJob
	for b := 0; b < sz.batches; b++ {
		var batch []serveJob
		if b < sz.batches-1 {
			for _, s := range plan.colds[b*sz.coldPerBatch : (b+1)*sz.coldPerBatch] {
				j, err := newServeJob(coldJob, s)
				if err != nil {
					return mixPlan{}, err
				}
				batch = append(batch, j)
			}
		}
		if b > 0 {
			for _, s := range plan.colds[(b-1)*sz.coldPerBatch : b*sz.coldPerBatch] {
				for _, o := range []serve.ConfigOverride{{SMs: &sms}, {PrefetchDepth: &depth}} {
					o.GPUL2Policy = s.Config.GPUL2Policy
					w := s
					w.Config = &o
					j, err := newServeJob(warmJob, w)
					if err != nil {
						return mixPlan{}, err
					}
					batch = append(batch, j)
				}
			}
			for i := 0; i < sz.hitsPerBatch; i++ {
				h := done[rng.IntN(len(done))]
				h.class = hitJob
				batch = append(batch, h)
			}
		}
		rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
		plan.batches = append(plan.batches, batch)
		for _, j := range batch {
			if j.class != hitJob {
				done = append(done, j)
			}
		}
	}
	if sz.disk > len(done) {
		return mixPlan{}, fmt.Errorf("serve-mix: %d disk hits wanted, %d distinct jobs finish", sz.disk, len(done))
	}
	for _, i := range rng.Perm(len(done))[:sz.disk] {
		j := done[i]
		j.class = diskJob
		plan.disk = append(plan.disk, j)
	}
	return plan, nil
}

// serveMix drives one dstore-serve daemon, with its store on, through a
// seeded stream of cold, warm and repeated jobs from two closed-loop
// clients, restarts it on the same store, and repeats finished jobs from
// disk. Each round starts from an empty store.
type serveMix struct {
	plan   mixPlan
	client *http.Client
	book   *resultBook
	node   *serveNode
	dir    string
	timer  *requestTimer // set while a traced round runs
}

func (m *serveMix) setup(e *env) error {
	var err error
	if m.plan, err = planMix(e.rng(0), mixSizes[e.scale]); err != nil {
		return err
	}
	m.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * mixClients}}
	m.book = newResultBook()
	return m.start(e, nil)
}

// start brings up a daemon on a fresh, empty store.
func (m *serveMix) start(e *env, timer *requestTimer) error {
	dir, err := os.MkdirTemp(e.workDir, "store-")
	if err != nil {
		return err
	}
	m.dir, m.timer = dir, timer
	return m.open()
}

// open starts the daemon on m.dir.
func (m *serveMix) open() error {
	var mw func(http.Handler) http.Handler
	if m.timer != nil {
		mw = m.timer.wrap
	}
	n, err := startServe(serve.Options{Workers: mixWorkers, StoreDir: m.dir, Name: "serve-mix"}, mw)
	m.node = n
	return err
}

// stop shuts the daemon down and deletes its store.
func (m *serveMix) stop() error {
	if m.node == nil {
		return nil
	}
	err := m.node.stop()
	m.node = nil
	if rerr := os.RemoveAll(m.dir); err == nil {
		err = rerr
	}
	return err
}

func (m *serveMix) round(e *env, tr *tracer) (*roundStats, error) {
	rs := newRoundStats()
	if tr != nil || m.node == nil {
		if err := m.stop(); err != nil {
			return nil, err
		}
		var timer *requestTimer
		if tr != nil {
			timer = &requestTimer{submit: func(d time.Duration) { rs.addLat("submit_handler", d) }}
		}
		if err := m.start(e, timer); err != nil {
			return nil, err
		}
	}

	rs.start = time.Now()
	for _, batch := range m.plan.batches {
		m.runBatch(batch, rs, tr)
	}
	if tr != nil {
		t := tr.now()
		err := m.scrape(rs)
		tr.add("serve.stats", 0, t)
		if err != nil {
			return nil, err
		}
	}
	t0, t := time.Now(), tr.now()
	if err := m.node.stop(); err != nil {
		return nil, fmt.Errorf("restart: %w", err)
	}
	if err := m.open(); err != nil {
		return nil, fmt.Errorf("restart: %w", err)
	}
	tr.add("store.reopen", 0, t)
	rs.layer["store.reopen_s"] = time.Since(t0).Seconds()
	m.runBatch(m.plan.disk, rs, tr)
	rs.wall = time.Since(rs.start)
	rs.items = float64(rs.attempted)
	if m.timer != nil {
		rs.layer["serve.poll_calls_per_job"] = ratio(float64(m.timer.polls.Load()), float64(len(m.plan.colds)*3))
	}
	return rs, m.stop()
}

// scrape records the daemon's own view of the round before the restart
// resets its counters.
func (m *serveMix) scrape(rs *roundStats) error {
	base := m.node.lb.url
	st, err := stats(m.client, base)
	if err != nil {
		return err
	}
	wait, err := histMean(m.client, base, "dstore_serve_queue_wait_ns")
	if err != nil {
		return err
	}
	hits, misses := st["dstore_serve_cache_hits_total"], st["dstore_serve_cache_misses_total"]
	snapHits, snapMisses := st["dstore_serve_snapshot_hits_total"], st["dstore_serve_snapshot_misses_total"]
	rs.layer["serve.cache_hit_ratio"] = ratio(hits, hits+misses)
	rs.layer["serve.snapshot_hit_ratio"] = ratio(snapHits, snapHits+snapMisses)
	rs.layer["serve.rejected"] = st["dstore_serve_rejected_total"]
	rs.layer["serve.coalesced"] = st["dstore_serve_coalesced_total"]
	rs.layer["store.objects"] = st["dstore_store_disk_entries"]
	rs.layer["store.bytes"] = st["dstore_store_disk_bytes"]
	rs.layer["serve.queue_wait_mean_ms"] = wait / 1e6
	return nil
}

// runBatch runs a batch's jobs from mixClients closed-loop clients and
// returns when all are answered.
func (m *serveMix) runBatch(jobs []serveJob, rs *roundStats, tr *tracer) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for lane := 0; lane < mixClients; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(len(jobs)); i = next.Add(1) - 1 {
				m.exec(jobs[i], lane, rs, tr)
			}
		}(lane)
	}
	wg.Wait()
}

// exec runs one job and checks its answer: the class it should have
// hit, the advertised digest, and the bytes served for it before.
func (m *serveMix) exec(j serveJob, lane int, rs *roundStats, tr *tracer) {
	t0, t := time.Now(), tr.now()
	body, cached, err := m.submit(j, lane, tr)
	d := time.Since(t0)
	tr.add("serve."+classNames[j.class], lane, t)
	if wantCached := j.class == hitJob || j.class == diskJob; err == nil && cached != wantCached {
		err = fmt.Errorf("%s job %.12s: answered from cache = %v", classNames[j.class], j.id, cached)
	}
	if err == nil {
		err = m.book.record(j.id, j.spec, body)
	}
	rs.op(err)
	if err == nil {
		rs.addLat(classNames[j.class], d)
	}
}

// submit posts a job and, unless the daemon answers from cache, polls
// its status until the result is ready. It returns the result body and
// whether the submission was answered from cache.
func (m *serveMix) submit(j serveJob, lane int, tr *tracer) ([]byte, bool, error) {
	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	defer cancel()
	base := m.node.lb.url
	t := tr.now()
	code, hdr, b, err := fetch(ctx, m.client, http.MethodPost, base+"/v1/runs", j.body)
	tr.add("http.submit", lane, t)
	if err != nil {
		return nil, false, err
	}
	switch code {
	case http.StatusOK:
		body, err := doneResult(hdr, b)
		return body, true, err
	case http.StatusAccepted:
	default:
		return nil, false, fmt.Errorf("POST /v1/runs: %d %s", code, bytes.TrimSpace(b))
	}
	for {
		time.Sleep(pollInterval)
		t = tr.now()
		code, hdr, b, err = fetch(ctx, m.client, http.MethodGet, base+"/v1/runs/"+j.id, nil)
		tr.add("http.poll", lane, t)
		if err != nil {
			return nil, false, err
		}
		if code != http.StatusOK {
			return nil, false, fmt.Errorf("GET /v1/runs/%.12s: %d %s", j.id, code, bytes.TrimSpace(b))
		}
		var env runEnvelope
		if err := json.Unmarshal(b, &env); err != nil {
			return nil, false, err
		}
		switch env.Status {
		case "queued", "running":
			continue
		case "done":
			body, err := doneResult(hdr, b)
			return body, false, err
		}
		return nil, false, fmt.Errorf("job %.12s %s: %s", j.id, env.Status, env.Error)
	}
}

// doneResult extracts and digest-checks the result of a done envelope.
func doneResult(hdr http.Header, b []byte) ([]byte, error) {
	var env runEnvelope
	if err := json.Unmarshal(b, &env); err != nil {
		return nil, err
	}
	if env.Status != "done" || len(env.Result) == 0 {
		return nil, fmt.Errorf("job %.12s: status %q with no result", env.ID, env.Status)
	}
	return env.Result, checkDigest(hdr, env.Result)
}

func (m *serveMix) verify(e *env) []string { return m.book.verifySample(e.rng(1)) }

func (m *serveMix) layers(e *env, untraced []*roundStats, traced *roundStats, _ *tracer, ls *layerSet) error {
	for _, c := range []struct {
		class, name string
		p           float64
	}{
		{"cold", "serve.cold_p50_ms", 50}, {"cold", "serve.cold_p90_ms", 90},
		{"warm", "serve.warm_p50_ms", 50}, {"warm", "serve.warm_p90_ms", 90},
		{"hit", "serve.hit_p50_ms", 50}, {"hit", "serve.hit_p99_ms", 99},
		{"disk_hit", "serve.disk_hit_p50_ms", 50},
	} {
		ls.pct(c.name, pooled(untraced, c.class), c.p)
	}
	ls.pct("serve.submit_handler_ms_p50", traced.lat["submit_handler"], 50)
	ls.pct("serve.submit_handler_ms_p99", traced.lat["submit_handler"], 99)
	if err := ls.take(traced.layer, "serve.queue_wait_mean_ms", "serve.poll_calls_per_job", "serve.cache_hit_ratio",
		"serve.snapshot_hit_ratio", "serve.rejected", "serve.coalesced", "store.objects", "store.bytes"); err != nil {
		return err
	}
	ls.m["store.reopen_s"] = median(perRound(untraced, "store.reopen_s"))

	specs := m.plan.colds[:min(snapSamples, len(m.plan.colds))]
	enc, restore, size, err := snapshotTimings(specs)
	if err != nil {
		return err
	}
	ls.pct("snap.encode_ms_p50", enc, 50)
	ls.pct("snap.restore_ms_p50", restore, 50)
	ls.pct("snap.bytes_p50", size, 50)
	ids := m.book.ids()
	put, get, err := storeTimings(filepath.Join(e.workDir, "store-timing"), m.book, ids[:min(snapSamples, len(ids))])
	if err != nil {
		return err
	}
	ls.pct("store.put_ms_p50", put, 50)
	ls.pct("store.get_ms_p50", get, 50)
	return nil
}

// snapshotTimings times core.System.Snapshot and RestoreSnapshot on the
// post-produce state of each spec, as the daemon's warm-prefix cache
// does, and returns the times in milliseconds and the snapshot sizes.
func snapshotTimings(specs []serve.JobSpec) (enc, restore, size []float64, err error) {
	for _, s := range specs {
		cfg, err := s.BuildConfig()
		if err != nil {
			return nil, nil, nil, err
		}
		sys := core.NewSystem(cfg)
		w, err := bench.Build(sys, s.Bench, inputOf(s.Input))
		if err != nil {
			return nil, nil, nil, err
		}
		if _, err := w.RunPhaseRangeContext(context.Background(), sys, 0, 1); err != nil {
			return nil, nil, nil, err
		}
		t0 := time.Now()
		blob, err := sys.Snapshot()
		enc = append(enc, ms(time.Since(t0)))
		if err != nil {
			return nil, nil, nil, err
		}
		fresh := core.NewSystem(cfg)
		if _, err := bench.Build(fresh, s.Bench, inputOf(s.Input)); err != nil {
			return nil, nil, nil, err
		}
		t0 = time.Now()
		err = fresh.RestoreSnapshot(blob)
		restore = append(restore, ms(time.Since(t0)))
		if err != nil {
			return nil, nil, nil, err
		}
		size = append(size, float64(len(blob)))
	}
	return enc, restore, size, nil
}

// storeTimings times a durable store.Put and a store.Get of each of the
// given results in a fresh store under dir, in milliseconds.
func storeTimings(dir string, book *resultBook, ids []string) (put, get []float64, err error) {
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	for _, id := range ids {
		body := book.bodies[id]
		sum := sha256.Sum256(body)
		key := hex.EncodeToString(sum[:])
		t0 := time.Now()
		if err := st.Put("result", key, body); err != nil {
			st.Close()
			return nil, nil, err
		}
		put = append(put, ms(time.Since(t0)))
		t0 = time.Now()
		got, ok := st.Get("result", key)
		get = append(get, ms(time.Since(t0)))
		if !ok || !bytes.Equal(got, body) {
			st.Close()
			return nil, nil, errors.New("store: a result read back differs from the one written")
		}
	}
	return put, get, st.Close()
}

func (m *serveMix) close() {
	if err := m.stop(); err != nil {
		fmt.Fprintln(os.Stderr, "serve-mix: stop:", err)
	}
	if m.client != nil {
		m.client.CloseIdleConnections()
	}
}

package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dstore/internal/bench"
	"dstore/internal/core"
	"dstore/internal/obs"
	"dstore/internal/obs/dtrace"
	"dstore/internal/store"
)

// Options configures a Server. The zero value gets sensible defaults.
type Options struct {
	// Workers is the number of simulations run concurrently. Zero or
	// negative means runtime.GOMAXPROCS(0).
	Workers int
	// QueueDepth bounds the number of accepted-but-not-started jobs.
	// When the queue is full, submissions are rejected with 429 and a
	// Retry-After hint. Default 64.
	QueueDepth int
	// CacheEntries bounds the result cache. Default 1024.
	CacheEntries int
	// JobTimeout cancels a simulation that runs longer than this; the
	// job is reported as cancelled. Zero means no per-job timeout.
	JobTimeout time.Duration
	// StallGuardEvents arms the simulation engine's forward-progress
	// watchdog for every job: a simulation that executes this many
	// events without the clock advancing is declared livelocked and
	// fails (the panic is caught per-job; the worker survives). Zero
	// selects 10M events, far beyond any legitimate same-tick cascade.
	StallGuardEvents uint64
	// StoreDir, when non-empty, layers a persistent content-addressed
	// disk store (internal/store) beneath the result and snapshot
	// LRUs: completed results and warm-prefix snapshots survive
	// restarts, and entries that fail verification at startup are
	// quarantined and counted rather than served or fatal.
	StoreDir string
	// StoreMaxBytes caps the disk store (internal/store LRU eviction).
	// Zero means store.DefaultMaxBytes; negative means unlimited.
	StoreMaxBytes int64
	// Name labels this worker's process row in stitched fleet traces.
	// Default "dstore-serve".
	Name string
	// Clock supplies distributed-tracing span timestamps. Nil falls
	// back to the recorder's monotonic sequence; the daemon injects a
	// wall clock at the cmd layer so internal packages stay wall-free.
	Clock obs.Clock
	// EnablePprof registers the runtime profiling handlers under
	// /debug/pprof/ on the server's own mux (the -pprof flag). Off by
	// default: profiles expose internals and cost CPU to capture.
	EnablePprof bool
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.CacheEntries <= 0 {
		o.CacheEntries = 1024
	}
	if o.StallGuardEvents == 0 {
		o.StallGuardEvents = 10_000_000
	}
	if o.Name == "" {
		o.Name = "dstore-serve"
	}
	return o
}

// retryAfter is the Retry-After hint returned with 429 responses.
const retryAfter = time.Second

// snapshotCacheEntries bounds the warm-prefix snapshot cache: jobs
// sharing a (benchmark, input, prefix-relevant config) warm-up phase
// restore the post-produce machine state instead of re-simulating it
// (bench.RunWithSnapshotContext).
const snapshotCacheEntries = 64

// jobStatus is a job's lifecycle state.
type jobStatus string

const (
	statusQueued    jobStatus = "queued"
	statusRunning   jobStatus = "running"
	statusDone      jobStatus = "done"
	statusFailed    jobStatus = "failed"
	statusCancelled jobStatus = "cancelled"
)

// job is one accepted submission. Mutable fields are guarded by the
// server mutex.
type job struct {
	id   string
	spec JobSpec
	cfg  core.Config

	status    jobStatus
	errMsg    string
	submitted time.Time
	started   time.Time
	finished  time.Time

	// Distributed-tracing context, propagated by the coordinator in
	// X-Dstore-Trace-Id / X-Dstore-Span-Id. Zero trace means the
	// submission was untraced. submitNS is the recorder clock reading
	// at enqueue, the start of the queue-wait span.
	trace    uint64
	jobIdx   uint32
	submitNS uint64

	// Observability artifacts, filled by the run function and consumed
	// by runJob on success: the Chrome trace body (Trace jobs only) and
	// the run's latency histograms, merged into the server aggregates
	// behind /metrics.
	traceBody []byte
	hists     []*obs.Histogram
	// snapProbed records that the run was eligible for the warm-prefix
	// snapshot cache (bench.PrefixKey) and so probed it; snapRestored
	// that it resumed from a snapshot instead of simulating its
	// produce phase (surfaced in the status response for
	// observability; the Result is byte-identical either way).
	snapProbed   bool
	snapRestored bool
	// done is closed exactly once, when the job leaves inflight
	// (finished, failed, cancelled or drained by Shutdown), waking
	// GET /result requests parked on it.
	done chan struct{}
}

// maxFailures bounds the recently-failed map; older failures fall off
// and read as 404, which is fine — failures are not content-addressed
// results, only diagnostics.
const maxFailures = 256

// Server is the simulation-as-a-service engine: it owns the job queue,
// the worker pool and the result cache, and exposes the HTTP API via
// Handler. Construct with New, stop with Shutdown or Close.
type Server struct {
	opt   Options
	mux   *http.ServeMux
	cache *resultCache
	// traces holds Chrome trace bodies for Trace jobs, keyed like the
	// result cache and bounded the same way.
	traces *resultCache
	// snaps is the warm-prefix snapshot cache: serialized post-produce
	// machine states keyed by bench.PrefixKey. Its hit counter is the
	// cache-answered half of every memoizable run.
	snaps *resultCache
	// disk is the persistent tier beneath cache and snaps (nil when
	// Options.StoreDir is empty). Closed — which syncs it — on
	// Shutdown, after the worker pool has drained its last write.
	disk  *store.Store
	runFn func(ctx context.Context, j *job) ([]byte, error)

	// histMu guards aggHists, the server-lifetime latency histograms
	// merged from every executed job (rendered by /metrics), and
	// queueWait, the submit→start wait distribution.
	histMu    sync.Mutex
	aggHists  [obs.NumHists]*obs.Histogram
	queueWait *obs.Histogram

	// rec is the distributed-tracing span ring (always on: recording
	// is one 32-byte copy per lifecycle stage and untraced submissions
	// record nothing).
	rec *dtrace.Recorder

	// baseCtx parents every job context; cancel aborts in-flight
	// simulations (hard stop — graceful Shutdown does not cancel it
	// unless its own context expires).
	baseCtx context.Context
	cancel  context.CancelFunc

	mu       sync.Mutex
	closed   bool
	inflight map[string]*job // queued or running
	failures map[string]*job // recently failed or cancelled
	failSeq  []string        // failure insertion order, for bounding
	queue    chan *job
	wg       sync.WaitGroup

	executed  atomic.Uint64 // simulations run to completion
	failed    atomic.Uint64
	cancelled atomic.Uint64
	coalesced atomic.Uint64 // submissions attached to an in-flight job
	rejected  atomic.Uint64 // 429s
	panicked  atomic.Uint64 // jobs that panicked (caught; worker survived)
}

// New starts a server: opt.Workers goroutines draining the job queue.
// With Options.StoreDir set it opens (verifying and, where needed,
// quarantining) the persistent store first; a store that cannot be
// opened at all — not a corrupt entry, which only quarantines — is
// the one startup error.
func New(opt Options) (*Server, error) {
	return newServer(opt, nil)
}

// runBench executes a job for real: one private system per run, the
// canonical encoding as the stored body. Every run carries a histogram
// observer (feeding the /metrics latency aggregates); Trace jobs also
// record the event ring and serialize it as a Chrome trace artifact.
// Observation never changes a Result, so cached bodies stay
// byte-identical to untraced runs.
//
// Every job runs through the warm-prefix snapshot cache: the CPU
// produce phase simulates once per (benchmark, input, prefix config)
// and later jobs resume from its stored machine state, with Results
// byte-identical to cold runs. bench.PrefixKey leaves traced jobs (a
// resumed run records no prefix events), chaos runs and benchmarks
// without a CPU produce phase out of the cache; histogram-only
// observation rides along either way, so /metrics latency aggregates
// simply lack the skipped prefix samples.
func (s *Server) runBench(ctx context.Context, j *job) ([]byte, error) {
	o := obs.New(obs.Options{Trace: j.spec.Trace, Hist: true})
	j.cfg.Obs = o
	_, j.snapProbed = bench.PrefixKey(j.spec.Bench, j.cfg, j.spec.input())
	res, restored, err := bench.RunWithSnapshotContext(ctx, j.spec.Bench, j.cfg, j.spec.input(), s.snaps)
	j.snapRestored = restored
	if err != nil {
		return nil, err
	}
	for id := obs.HistID(0); id < obs.NumHists; id++ {
		j.hists = append(j.hists, o.Hist(id))
	}
	if j.spec.Trace {
		var buf bytes.Buffer
		if err := o.WriteTrace(&buf); err != nil {
			return nil, err
		}
		j.traceBody = buf.Bytes()
	}
	return EncodeResult(res)
}

// Store namespaces: results are canonical JSON documents, snapshots
// are DSSNAP streams whose header fingerprint is verified at Open.
const (
	storeNSResult = "result"
	storeNSSnap   = "snap"
)

// newServer is New with an injectable run function (test hook).
func newServer(opt Options, runFn func(context.Context, *job) ([]byte, error)) (*Server, error) {
	opt = opt.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opt:      opt,
		cache:    newResultCache(opt.CacheEntries),
		traces:   newResultCache(opt.CacheEntries),
		snaps:    newResultCache(snapshotCacheEntries),
		runFn:    runFn,
		baseCtx:  ctx,
		cancel:   cancel,
		inflight: make(map[string]*job),
		failures: make(map[string]*job),
		queue:    make(chan *job, opt.QueueDepth),
	}
	if opt.StoreDir != "" {
		disk, err := store.Open(store.Options{
			Dir:      opt.StoreDir,
			MaxBytes: opt.StoreMaxBytes,
			Verify: map[string]store.VerifyFunc{
				storeNSResult: verifyResultBody,
				storeNSSnap:   core.VerifySnapshotHeader,
			},
		})
		if err != nil {
			cancel()
			return nil, err
		}
		s.disk = disk
		s.cache.attachDisk(disk, storeNSResult)
		s.snaps.attachDisk(disk, storeNSSnap)
	}
	if s.runFn == nil {
		s.runFn = s.runBench
	}
	for i := range s.aggHists {
		s.aggHists[i] = obs.NewHistogram(obs.HistID(i).String())
	}
	s.queueWait = obs.NewHistogram("queue_wait_ns")
	s.rec = dtrace.New(dtrace.Options{Clock: opt.Clock, Process: opt.Name})
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/runs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/runs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/runs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /v1/runs/{id}/trace", s.handleTrace)
	s.mux.HandleFunc("GET /v1/traces/{tid}", s.handleTraceDump)
	s.mux.HandleFunc("GET /v1/benchmarks", s.handleBenchmarks)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	if opt.EnablePprof {
		// On the server's own mux: the blank net/http/pprof import only
		// touches DefaultServeMux, which this daemon never serves.
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	s.wg.Add(opt.Workers)
	for i := 0; i < opt.Workers; i++ {
		go s.worker()
	}
	return s, nil
}

// verifyResultBody is the startup deep check for the result
// namespace: stored bodies are canonical JSON documents, so anything
// that does not even parse is quarantined.
func verifyResultBody(body []byte) error {
	if !json.Valid(body) {
		return errors.New("serve: stored result is not valid JSON")
	}
	return nil
}

// Handler returns the HTTP API.
func (s *Server) Handler() http.Handler { return s.mux }

func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

func (s *Server) runJob(j *job) {
	s.mu.Lock()
	if j.status != statusQueued {
		// Shutdown cancelled it while it sat in the channel.
		s.mu.Unlock()
		return
	}
	j.status = statusRunning
	j.started = time.Now() //dstore:allow-wallclock job metadata only, never in a Result
	s.mu.Unlock()

	// Queue wait ends now: record the span (traced jobs) and feed the
	// /metrics wait histogram (every job).
	waitEnd := s.rec.Now()
	var wait uint64
	if waitEnd > j.submitNS {
		wait = waitEnd - j.submitNS
	}
	s.rec.Record(j.trace, dtrace.SpanQueueWait, j.jobIdx, 0, j.submitNS, wait, 0)
	s.histMu.Lock()
	s.queueWait.Observe(wait)
	s.histMu.Unlock()

	ctx := s.baseCtx
	cancel := context.CancelFunc(func() {})
	if s.opt.JobTimeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, s.opt.JobTimeout)
	}
	// Arm the engine's forward-progress watchdog: a livelocked
	// simulation panics instead of spinning the worker forever, and
	// safeRun converts that panic into a failed job.
	j.cfg.StallGuardEvents = s.opt.StallGuardEvents
	sp := s.rec.Begin(j.trace, dtrace.SpanSimulate, j.jobIdx, 0)
	body, err := s.safeRun(ctx, j)
	cancel()
	var simFlags uint8
	if err != nil {
		simFlags |= dtrace.FlagErr
	}
	if j.snapRestored {
		simFlags |= dtrace.FlagHit
	}
	sp.End(simFlags)
	if j.trace != 0 && j.snapProbed {
		// The warm-prefix snapshot probe's outcome, as an instant span.
		var snapFlags uint8
		if j.snapRestored {
			snapFlags = dtrace.FlagHit
		}
		s.rec.Record(j.trace, dtrace.SpanSnapshot, j.jobIdx, 0, s.rec.Now(), 0, snapFlags)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	// Deferred after the unlock, so it runs while s.mu is still held:
	// waiters wake to the cache entry or failure record written below.
	defer close(j.done)
	j.finished = time.Now() //dstore:allow-wallclock job metadata only, never in a Result
	delete(s.inflight, j.id)
	if err != nil {
		j.errMsg = err.Error()
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			j.status = statusCancelled
			s.cancelled.Add(1)
		} else {
			j.status = statusFailed
			s.failed.Add(1)
		}
		s.recordFailureLocked(j)
		return
	}
	j.status = statusDone
	s.executed.Add(1)
	s.cache.Put(j.id, body)
	if j.traceBody != nil {
		s.traces.Put(j.id, j.traceBody)
	}
	s.mergeHists(j.hists)
}

// mergeHists folds one run's latency histograms into the server
// aggregates. Safe with nil or short slices (test run functions fill
// none).
func (s *Server) mergeHists(hists []*obs.Histogram) {
	s.histMu.Lock()
	defer s.histMu.Unlock()
	for i, h := range hists {
		if i < len(s.aggHists) {
			s.aggHists[i].Merge(h)
		}
	}
}

// histSnapshot copies the aggregate latency histograms and the
// queue-wait histogram under one histMu hold, so a scrape renders
// without the lock.
func (s *Server) histSnapshot() (hists [obs.NumHists]*obs.Histogram, queueWait *obs.Histogram) {
	s.histMu.Lock()
	defer s.histMu.Unlock()
	for i, h := range s.aggHists {
		hists[i] = h.Clone()
	}
	return hists, s.queueWait.Clone()
}

// safeRun executes the job's simulation with per-job panic isolation: a
// panicking simulation (a protocol assertion, the engine's livelock
// guard) becomes a failed-job result carrying the panic value and
// stack, and the worker goroutine survives to take the next job.
func (s *Server) safeRun(ctx context.Context, j *job) (body []byte, err error) {
	defer func() {
		if p := recover(); p != nil {
			s.panicked.Add(1)
			body = nil
			err = fmt.Errorf("job panicked: %v\n%s", p, debug.Stack())
		}
	}()
	return s.runFn(ctx, j)
}

// recordFailureLocked remembers a failed job for status reads, bounded
// to the most recent maxFailures. Caller holds s.mu.
func (s *Server) recordFailureLocked(j *job) {
	if _, ok := s.failures[j.id]; !ok {
		s.failSeq = append(s.failSeq, j.id)
	}
	s.failures[j.id] = j
	for len(s.failSeq) > maxFailures {
		delete(s.failures, s.failSeq[0])
		s.failSeq = s.failSeq[1:]
	}
}

// Shutdown stops the server gracefully: new submissions are refused
// with 503, queued jobs are cancelled, and in-flight simulations are
// drained. If ctx expires before the drain completes, in-flight jobs
// are hard-cancelled (they abort within a few thousand simulated
// events) and ctx's error is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
	drain:
		for {
			select {
			case j := <-s.queue:
				j.status = statusCancelled
				j.errMsg = "cancelled: server shutting down"
				j.finished = time.Now() //dstore:allow-wallclock job metadata only, never in a Result
				delete(s.inflight, j.id)
				s.cancelled.Add(1)
				s.recordFailureLocked(j)
				close(j.done)
			default:
				break drain
			}
		}
		close(s.queue)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return s.closeDisk()
	case <-ctx.Done():
		s.cancel()
		<-done
		_ = s.closeDisk()
		return ctx.Err()
	}
}

// closeDisk syncs and closes the persistent store once every worker
// has retired (so the last write has landed). Idempotent; nil-safe.
func (s *Server) closeDisk() error {
	if s.disk == nil {
		return nil
	}
	return s.disk.Close()
}

// Close hard-stops the server: in-flight jobs are cancelled, then the
// pool is torn down.
func (s *Server) Close() {
	s.cancel()
	_ = s.Shutdown(context.Background())
}

// ResultDigestHeader advertises the SHA-256 (hex) of the result or
// trace document a response carries — the payload's content address.
// For an envelope response the digest covers the embedded result
// field, not the envelope. Coordinators verify it end to end before
// caching or forwarding, so a worker (or the network path to it)
// serving corrupt bytes is detected rather than trusted.
const ResultDigestHeader = "X-Dstore-Result-Digest"

// setResultDigest stamps ResultDigestHeader for payload. Must be
// called before the body (or status code) is written.
func setResultDigest(w http.ResponseWriter, payload []byte) {
	sum := sha256.Sum256(payload)
	w.Header().Set(ResultDigestHeader, hex.EncodeToString(sum[:]))
}

// runResponse is the envelope for submission and status responses.
type runResponse struct {
	ID     string          `json:"id"`
	Status jobStatus       `json:"status"`
	Cached bool            `json:"cached,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// maxBodyBytes bounds submission bodies; specs are tiny.
const maxBodyBytes = 1 << 20

// handleSubmit implements POST /v1/runs: parse and normalize the spec,
// answer from cache on a hit, coalesce onto an identical in-flight
// job, otherwise enqueue — or push back with 429 when the queue is
// full.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	var spec JobSpec
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "bad job spec: %v", err)
		return
	}
	norm, err := spec.Normalize()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	cfg, err := norm.BuildConfig()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	id, err := norm.ID()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}

	trace, jobIdx, _ := dtrace.FromHeaders(r.Header)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		writeError(w, http.StatusServiceUnavailable, "server shutting down")
		return
	}
	if j, ok := s.inflight[id]; ok {
		s.coalesced.Add(1)
		writeJSON(w, http.StatusAccepted, runResponse{ID: id, Status: j.status})
		return
	}
	if body, ok := s.cache.Get(id); ok {
		// A Trace job is only answerable from cache while its trace
		// artifact survives too; if the trace was evicted, fall through
		// and rerun to regenerate it.
		_, traceOK := s.traces.lookup(id)
		if !norm.Trace || traceOK {
			if trace != 0 {
				s.rec.Record(trace, dtrace.SpanCacheLookup, jobIdx, 0, s.rec.Now(), 0, dtrace.FlagHit)
			}
			setResultDigest(w, body)
			writeJSON(w, http.StatusOK, runResponse{ID: id, Status: statusDone, Cached: true, Result: body})
			return
		}
	}
	//dstore:allow-wallclock job metadata only, never in a Result
	j := &job{id: id, spec: norm, cfg: cfg, status: statusQueued, submitted: time.Now(),
		trace: trace, jobIdx: jobIdx, submitNS: s.rec.Now(), done: make(chan struct{})}
	if trace != 0 {
		s.rec.Record(trace, dtrace.SpanCacheLookup, jobIdx, 0, j.submitNS, 0, 0)
	}
	select {
	case s.queue <- j:
		s.inflight[id] = j
		// A resubmission supersedes any stale failure record.
		delete(s.failures, id)
		writeJSON(w, http.StatusAccepted, runResponse{ID: id, Status: statusQueued})
	default:
		s.rejected.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(int(retryAfter/time.Second)))
		writeError(w, http.StatusTooManyRequests, "job queue full (%d pending); retry later", s.opt.QueueDepth)
	}
}

// handleStatus implements GET /v1/runs/{id}.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	if j, ok := s.inflight[id]; ok {
		resp := runResponse{ID: id, Status: j.status}
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, resp)
		return
	}
	if j, ok := s.failures[id]; ok {
		resp := runResponse{ID: id, Status: j.status, Error: j.errMsg}
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, resp)
		return
	}
	s.mu.Unlock()
	if body, ok := s.cache.lookup(id); ok {
		setResultDigest(w, body)
		writeJSON(w, http.StatusOK, runResponse{ID: id, Status: statusDone, Cached: true, Result: body})
		return
	}
	writeError(w, http.StatusNotFound, "unknown run %q", id)
}

// ResultWait bounds how long GET /v1/runs/{id}/result holds a request
// for a queued or running job. The request returns as soon as the job
// finishes; if the wait expires first it answers 409 with the live
// status, and the caller waits again by re-issuing the GET.
const ResultWait = time.Second

// handleResult implements GET /v1/runs/{id}/result: the raw canonical
// result document, byte-identical across repeated identical jobs. For
// an in-flight job it first waits up to ResultWait for the job to
// finish.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j := s.inflight[id]
	s.mu.Unlock()
	if j != nil {
		//dstore:allow-wallclock the result wait is request pacing, never in a Result
		t := time.NewTimer(ResultWait)
		select {
		case <-j.done:
		case <-r.Context().Done():
		case <-t.C:
		}
		t.Stop()
	}
	if body, ok := s.cache.lookup(id); ok {
		w.Header().Set("Content-Type", "application/json")
		setResultDigest(w, body)
		_, _ = w.Write(body)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.inflight[id]; ok {
		writeJSON(w, http.StatusConflict, runResponse{ID: id, Status: j.status})
		return
	}
	if j, ok := s.failures[id]; ok {
		writeJSON(w, http.StatusConflict, runResponse{ID: id, Status: j.status, Error: j.errMsg})
		return
	}
	writeError(w, http.StatusNotFound, "unknown run %q", id)
}

// handleTrace implements GET /v1/runs/{id}/trace: the Chrome
// trace-event capture of a job submitted with "trace": true, loadable
// in Perfetto or chrome://tracing. Traces are deterministic in the
// spec, so repeated identical trace jobs serve identical bytes.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if body, ok := s.traces.lookup(id); ok {
		w.Header().Set("Content-Type", "application/json")
		setResultDigest(w, body)
		_, _ = w.Write(body)
		return
	}
	s.mu.Lock()
	if j, ok := s.inflight[id]; ok {
		resp := runResponse{ID: id, Status: j.status}
		s.mu.Unlock()
		writeJSON(w, http.StatusConflict, resp)
		return
	}
	s.mu.Unlock()
	if _, ok := s.cache.lookup(id); ok {
		writeError(w, http.StatusNotFound, "run %q has no stored trace (submit with \"trace\": true)", id)
		return
	}
	writeError(w, http.StatusNotFound, "unknown run %q", id)
}

// handleTraceDump implements GET /v1/traces/{tid}: this process's
// retained distributed-tracing spans for one trace ID (16 hex digits),
// in deterministic export order. The coordinator fans out to this
// endpoint on every worker and stitches the dumps into the merged
// Chrome trace behind /v1/sweeps/{id}/trace. Reads are pure: fetching
// a dump never records spans or renumbers sequence numbers.
func (s *Server) handleTraceDump(w http.ResponseWriter, r *http.Request) {
	tid, err := strconv.ParseUint(r.PathValue("tid"), 16, 64)
	if err != nil || tid == 0 {
		writeError(w, http.StatusBadRequest, "bad trace id %q (want 16 hex digits)", r.PathValue("tid"))
		return
	}
	writeJSON(w, http.StatusOK, s.rec.DumpTrace(tid))
}

// handleBenchmarks implements GET /v1/benchmarks: what can be
// submitted, plus the Table II inventory.
func (s *Server) handleBenchmarks(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"benchmarks": bench.Codes(),
		"modes": []string{core.ModeCCSM.String(), core.ModeDirectStore.String(),
			core.ModeStandalone.String()},
		"inputs": []string{bench.Small.String(), bench.Big.String()},
		"table2": bench.Table2(),
	})
}

// handleHealth implements GET /healthz.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	inflight := len(s.inflight)
	closed := s.closed
	s.mu.Unlock()
	status := "ok"
	code := http.StatusOK
	if closed {
		status = "shutting-down"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{
		"status":   status,
		"inflight": inflight,
		"workers":  s.opt.Workers,
	})
}

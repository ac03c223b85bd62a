// Package fleet turns a set of dstore-serve workers into one logical
// simulation service: a coordinator that consistent-hashes
// content-addressed job IDs across the fleet, proxies single-job
// requests to the owning worker (failing over to the next replica on
// the ring when a worker is down or has lost its cache), and runs
// batch sweeps — a config matrix expanded server-side, fanned out to
// the fleet, with partial results streamed to the client as they land
// and an aggregate report computed at completion.
//
// Placement is what makes the fleet cache-efficient: a job's ID is
// the SHA-256 of its canonical spec, so routing by hash ring sends
// every resubmission of a spec to the same worker, whose
// content-addressed result cache and warm-prefix snapshot store
// (persistent when the worker runs with -store) absorb it without
// re-simulating. The coordinator holds no simulation state — every
// byte it returns came from a worker and is digest-verified against
// the worker's own content address before it is forwarded — and with
// a journal directory configured (Options.JournalDir) it can be
// SIGKILLed mid-sweep and resume on restart, re-dispatching only the
// jobs whose outcomes had not yet been journalled (DESIGN.md §13).
package fleet

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dstore/internal/obs"
	"dstore/internal/obs/dtrace"
	"dstore/internal/serve"
	"dstore/internal/sim"
	"dstore/internal/store"
)

// Options configures a Coordinator. The zero value gets sensible
// defaults; Workers may be empty when the fleet is populated via
// POST /v1/workers.
type Options struct {
	// Workers is the static member list (base URLs). Static workers
	// are assumed healthy at boot so the fleet is usable before the
	// first probe round.
	Workers []string
	// Vnodes is the number of hash-ring points per worker. More
	// vnodes, smoother key distribution. Default 64.
	Vnodes int
	// SweepWorkers is the number of jobs one sweep dispatches
	// concurrently. Default 16.
	SweepWorkers int
	// ProbeInterval is the health-probe period (jittered ±20% per
	// round from Seed). Default 2s.
	ProbeInterval time.Duration
	// RequestTimeout bounds each individual HTTP call to a worker. It
	// must exceed serve.ResultWait, the longest a worker holds a result
	// request. Default 30s.
	RequestTimeout time.Duration
	// JobDeadline bounds one job end to end: submission, queueing,
	// simulation and every failover retry. Default 5m.
	JobDeadline time.Duration

	// Seed drives every operational random draw — probe jitter,
	// backoff jitter — so a fleet's failure handling is reproducible.
	// Default 1.
	Seed uint64
	// FailureThreshold is how many consecutive failures trip a
	// worker's circuit breaker open. Default 3.
	FailureThreshold int
	// BreakerCooldown is how long an open breaker waits before
	// admitting one half-open trial request. Default 5s.
	BreakerCooldown time.Duration
	// QuarantineCooldown is how long an integrity quarantine lasts at
	// minimum; after it, a successful probe requalifies the worker.
	// Default 2m.
	QuarantineCooldown time.Duration
	// DispatchRetries is how many extra ring passes (beyond the
	// first) a job gets, with exponential backoff between passes.
	// Default 3; negative disables retry rounds.
	DispatchRetries int
	// MaxPending bounds jobs in the dispatch path at once; beyond it
	// the coordinator sheds load with 429 + Retry-After rather than
	// queueing without bound. Default 1024; negative means unlimited.
	MaxPending int
	// JournalDir, when set, enables sweep crash-recovery: every sweep
	// writes a WAL under this directory (spec at start, each outcome
	// as it lands) and New resumes any journal found incomplete.
	JournalDir string

	// Transport overrides the HTTP transport for every worker call
	// (nil means http.DefaultTransport). Tests inject an in-process
	// router here so worker URLs — and with them ring placement and
	// trace exports — are stable across runs.
	Transport http.RoundTripper
	// Name labels the coordinator's process row in stitched traces.
	// Default "coordinator".
	Name string
	// Clock supplies distributed-tracing span timestamps (dtrace). Nil
	// falls back to the recorder's monotonic sequence; the daemon
	// injects a wall clock at the cmd layer.
	Clock obs.Clock
	// EnablePprof registers the runtime profiling handlers under
	// /debug/pprof/ (the -pprof flag).
	EnablePprof bool
	// StoreDir, when set, opens a content-addressed store, capped at
	// store.DefaultMaxBytes, for fleet-wide CPU profile captures
	// (POST /v1/profiles); without it the endpoint answers 503.
	StoreDir string
}

// retryAfterMax caps how long a 429's Retry-After hint is honoured
// before retrying anyway.
const retryAfterMax = 2 * time.Second

// federationTimeout bounds the per-worker /metrics scrape and
// /v1/traces fetch during federation.
const federationTimeout = 2 * time.Second

// probeTimeout bounds one health-probe round, and the probe of a newly
// registered worker.
const probeTimeout = 2 * time.Second

// The retry-round backoff: backoffBase before the first retry round,
// doubling each further round up to backoffMax.
const (
	backoffBase = 100 * time.Millisecond
	backoffMax  = 5 * time.Second
)

func (o Options) withDefaults() Options {
	if o.Vnodes <= 0 {
		o.Vnodes = 64
	}
	if o.SweepWorkers <= 0 {
		o.SweepWorkers = 16
	}
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = 2 * time.Second
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 30 * time.Second
	}
	if o.JobDeadline <= 0 {
		o.JobDeadline = 5 * time.Minute
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.FailureThreshold <= 0 {
		o.FailureThreshold = 3
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 5 * time.Second
	}
	if o.QuarantineCooldown <= 0 {
		o.QuarantineCooldown = 2 * time.Minute
	}
	if o.DispatchRetries == 0 {
		o.DispatchRetries = 3
	}
	if o.DispatchRetries < 0 {
		o.DispatchRetries = 0
	}
	if o.MaxPending == 0 {
		o.MaxPending = 1024
	}
	if o.Name == "" {
		o.Name = "coordinator"
	}
	return o
}

// Coordinator is the fleet front-end. Construct with New, expose
// Handler over HTTP, stop with Close.
type Coordinator struct {
	opt    Options
	client *http.Client
	reg    *registry
	mux    *http.ServeMux

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	// rng supplies backoff jitter; guarded by rngMu (dispatches are
	// concurrent, and sim.Rand is not).
	rngMu sync.Mutex
	rng   *sim.Rand

	sweepMu sync.Mutex
	sweeps  map[string]*sweepRun

	// rec holds the coordinator's span ring; spans from workers are
	// stitched with it at trace export (GET /v1/sweeps/{id}/trace).
	rec *dtrace.Recorder
	// profiles is the content-addressed store for fleet CPU-profile
	// captures; nil without Options.StoreDir.
	profiles *store.Store

	// histMu guards dispatchLat (dispatches are concurrent).
	histMu      sync.Mutex
	dispatchLat *obs.Histogram

	pending        atomic.Int64  // jobs in the dispatch path right now
	dispatched     atomic.Uint64 // jobs handed to the dispatch path
	completed      atomic.Uint64 // jobs that returned a result
	jobsFailed     atomic.Uint64 // jobs that exhausted every replica or failed terminally
	failovers      atomic.Uint64 // replica advances after a worker error
	retryRounds    atomic.Uint64 // backoff rounds taken after a full ring pass failed
	shed           atomic.Uint64 // submissions refused at the MaxPending bound
	corrupt        atomic.Uint64 // worker responses whose digest did not verify
	streamed       atomic.Uint64 // sweep results written to streaming clients
	sweepsRun      atomic.Uint64 // sweeps started
	sweepsDone     atomic.Uint64 // sweeps run to completion
	sweepsDegraded atomic.Uint64 // completed sweeps carrying failed jobs
	sweepsResumed  atomic.Uint64 // incomplete journals resumed at startup
	jobsReplayed   atomic.Uint64 // journalled outcomes restored without re-dispatch
	journalAppends atomic.Uint64 // records durably appended to sweep journals
	journalErrors  atomic.Uint64 // journal appends or opens that failed (sweep continues)
	fedScrapes     atomic.Uint64 // worker /metrics scrapes during federation
	fedErrors      atomic.Uint64 // federation scrapes that failed (worker omitted)
	traceExports   atomic.Uint64 // stitched traces served
	profileCaps    atomic.Uint64 // fleet CPU-profile captures stored
}

// New builds a coordinator over the static worker list, resumes any
// incomplete sweep journals under Options.JournalDir, and starts the
// health-probe loop. An unparseable worker URL, a RequestTimeout not
// above serve.ResultWait, or an unreadable journal directory is a
// construction error.
func New(opt Options) (*Coordinator, error) {
	opt = opt.withDefaults()
	if opt.RequestTimeout <= serve.ResultWait {
		return nil, fmt.Errorf("fleet: request timeout %v must exceed the worker result wait %v", opt.RequestTimeout, serve.ResultWait)
	}
	ctx, cancel := context.WithCancel(context.Background())
	c := &Coordinator{
		opt:         opt,
		client:      &http.Client{Timeout: opt.RequestTimeout, Transport: opt.Transport},
		rng:         sim.NewRand(opt.Seed ^ 0xBACC0FF),
		sweeps:      make(map[string]*sweepRun),
		rec:         dtrace.New(dtrace.Options{Clock: opt.Clock, Process: opt.Name}),
		dispatchLat: obs.NewHistogram("dispatch_latency_ns"),
		ctx:         ctx,
		cancel:      cancel,
	}
	if opt.StoreDir != "" {
		st, err := store.Open(store.Options{Dir: opt.StoreDir})
		if err != nil {
			cancel()
			return nil, fmt.Errorf("fleet: open profile store: %w", err)
		}
		c.profiles = st
	}
	c.reg = newRegistry(c.client, opt)
	for _, w := range opt.Workers {
		if _, err := c.reg.add(w, true, true); err != nil {
			cancel()
			return nil, err
		}
	}
	c.mux = http.NewServeMux()
	c.mux.HandleFunc("POST /v1/runs", c.handleSubmit)
	c.mux.HandleFunc("GET /v1/runs/{id}", c.handleRunProxy)
	c.mux.HandleFunc("GET /v1/runs/{id}/result", c.handleRunProxy)
	c.mux.HandleFunc("GET /v1/runs/{id}/trace", c.handleRunProxy)
	c.mux.HandleFunc("GET /v1/benchmarks", c.handleBenchmarks)
	c.mux.HandleFunc("POST /v1/workers", c.handleWorkerAdd)
	c.mux.HandleFunc("GET /v1/workers", c.handleWorkerList)
	c.mux.HandleFunc("POST /v1/sweeps", c.handleSweepSubmit)
	c.mux.HandleFunc("GET /v1/sweeps", c.handleSweepList)
	c.mux.HandleFunc("GET /v1/sweeps/{id}", c.handleSweepStatus)
	c.mux.HandleFunc("GET /v1/sweeps/{id}/stream", c.handleSweepStream)
	c.mux.HandleFunc("GET /v1/sweeps/{id}/report", c.handleSweepReport)
	c.mux.HandleFunc("GET /v1/sweeps/{id}/trace", c.handleSweepTrace)
	c.mux.HandleFunc("POST /v1/profiles", c.handleProfileCapture)
	if opt.EnablePprof {
		c.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		c.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		c.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		c.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		c.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	c.mux.HandleFunc("GET /healthz", c.handleHealth)
	c.mux.HandleFunc("GET /metrics", c.handleMetrics)
	c.mux.HandleFunc("GET /v1/stats", c.handleStats)
	if opt.JournalDir != "" {
		if err := c.loadJournals(); err != nil {
			cancel()
			return nil, err
		}
	}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		c.reg.probeLoop(ctx, opt.ProbeInterval)
	}()
	return c, nil
}

// Handler returns the coordinator's HTTP API.
func (c *Coordinator) Handler() http.Handler { return c.mux }

// Close stops the probe loop and aborts in-flight dispatches and
// sweeps. Journals of unfinished sweeps are left incomplete on disk,
// which is exactly what lets the next New resume them.
func (c *Coordinator) Close() {
	c.cancel()
	c.wg.Wait()
	if c.profiles != nil {
		_ = c.profiles.Close()
	}
}

// terminalError marks a job failure that no other replica can fix: a
// rejected spec, or a deterministic simulation failure (the same spec
// would fail identically everywhere).
type terminalError struct{ msg string }

func (e *terminalError) Error() string { return e.msg }

// corruptError marks a response whose body failed digest
// verification: the worker served bytes that do not match its own
// advertised content address. The worker is quarantined and the job
// retried on a replica — corruption is a worker-integrity event, not
// a property of the job.
type corruptError struct {
	worker string
	detail string
}

func (e *corruptError) Error() string {
	return fmt.Sprintf("fleet: corrupt result from %s: %s", e.worker, e.detail)
}

// digestOf returns the content address (sha256 hex) of a result body,
// matching serve.ResultDigestHeader's format.
func digestOf(body []byte) string {
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:])
}

// verifyDigest checks a result payload against the digest the worker
// advertised in its response headers. No header means no claim (an
// older worker) — nothing to verify.
func verifyDigest(worker string, hdr http.Header, payload []byte) error {
	want := hdr.Get(serve.ResultDigestHeader)
	if want == "" {
		return nil
	}
	if got := digestOf(payload); got != want {
		return &corruptError{worker: worker, detail: fmt.Sprintf("body digest %.12s… does not match advertised %.12s…", got, want)}
	}
	return nil
}

// jobOutcome is one successfully dispatched job.
type jobOutcome struct {
	body    []byte // canonical result document, digest-verified
	worker  string // base URL that answered
	cached  bool   // answered 200-from-cache on submission
	workers int    // dispatch attempts spent (1 = owner answered first try)
}

// traceCtx carries one job's distributed-trace identity through the
// dispatch path: the trace every span lands under and the job's index
// within a sweep (dtrace.JobNone for single-run submissions). The zero
// value disables tracing for the call chain.
type traceCtx struct {
	trace uint64
	job   uint32
}

// do performs one HTTP call against a worker and slurps the body.
func (c *Coordinator) do(ctx context.Context, method, url string, body []byte) (int, http.Header, []byte, error) {
	return c.doT(ctx, method, url, body, traceCtx{})
}

// doT is do with trace propagation: a non-zero trace context is
// stamped onto the outbound request headers so the worker's own spans
// land under the same trace ID.
func (c *Coordinator) doT(ctx context.Context, method, url string, body []byte, tc traceCtx) (int, http.Header, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	dtrace.SetHeaders(req.Header, tc.trace, tc.job)
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, nil, err
	}
	return resp.StatusCode, resp.Header, b, nil
}

// runResp mirrors the worker's run-response envelope.
type runResp struct {
	ID     string          `json:"id"`
	Status string          `json:"status"`
	Cached bool            `json:"cached"`
	Result json.RawMessage `json:"result"`
	Error  string          `json:"error"`
}

// sleepCtx waits d or until ctx is cancelled.
func sleepCtx(ctx context.Context, d time.Duration) error {
	//dstore:allow-wallclock dispatch pacing is operational, never part of a simulation result
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// backoff computes the pause before retry round n: exponential from
// backoffBase, capped at backoffMax, with seeded equal-jitter (half
// the delay fixed, half drawn from the seeded stream) so retrying
// dispatchers decorrelate without losing reproducibility.
func (c *Coordinator) backoff(round int) time.Duration {
	d := backoffBase
	for i := 0; i < round && d < backoffMax; i++ {
		d *= 2
	}
	if d > backoffMax {
		d = backoffMax
	}
	half := uint64(d) / 2
	c.rngMu.Lock()
	j := c.rng.Uint64n(half + 1)
	c.rngMu.Unlock()
	return time.Duration(half + j)
}

// runJob dispatches one canonical job to the fleet: a pass over the
// job's replicas in breaker-filtered ring order, then — if every
// admitted worker failed — further passes after exponential backoff,
// so a transient cluster-wide blip (a partition healing, workers
// restarting) is ridden out instead of failed through. Worker-level
// failures feed the breaker; digest mismatches quarantine the worker;
// terminal failures (bad spec, deterministic simulation failure) stop
// immediately.
//
// A non-zero tc annotates the whole dispatch with spans: one
// SpanDispatch per attempt (arg = attempt ordinal; flags mark errors,
// corruption, cache hits), one SpanBackoff per retry round (dur = the
// backoff pause), and SpanVerify around each digest check inside
// runOn/awaitResult.
func (c *Coordinator) runJob(ctx context.Context, id string, spec []byte, tc traceCtx) (*jobOutcome, error) {
	c.dispatched.Add(1)
	c.pending.Add(1)
	defer c.pending.Add(-1)
	if c.opt.JobDeadline > 0 {
		//dstore:allow-wallclock job deadline is operational
		dctx, cancel := context.WithTimeout(ctx, c.opt.JobDeadline)
		defer cancel()
		ctx = dctx
	}
	var lastErr error
	attempts, rounds := 0, 0
	for round := 0; ; round++ {
		rounds++
		owners := c.reg.currentRing().owners(id)
		if len(owners) == 0 {
			c.jobsFailed.Add(1)
			return nil, &terminalError{"fleet: no workers registered"}
		}
		for _, u := range c.reg.dispatchOrder(owners) {
			attempts++
			start := c.rec.Now()
			out, err := c.runOn(ctx, u, id, spec, tc)
			end := c.rec.Now()
			var lat uint64
			if end > start {
				lat = end - start
			}
			if err == nil {
				var flags uint8
				if out.cached {
					flags |= dtrace.FlagCached
				}
				c.rec.Record(tc.trace, dtrace.SpanDispatch, tc.job, attemptArg(attempts), start, lat, flags)
				c.histMu.Lock()
				c.dispatchLat.Observe(lat)
				c.histMu.Unlock()
				c.reg.recordSuccess(u)
				out.workers = attempts
				c.completed.Add(1)
				return out, nil
			}
			dispatchFlags := uint8(dtrace.FlagErr)
			var term *terminalError
			if errors.As(err, &term) {
				c.rec.Record(tc.trace, dtrace.SpanDispatch, tc.job, attemptArg(attempts), start, lat, dispatchFlags)
				c.jobsFailed.Add(1)
				return nil, err
			}
			var corr *corruptError
			if errors.As(err, &corr) {
				dispatchFlags |= dtrace.FlagCorrupt
				c.corrupt.Add(1)
				c.reg.quarantineWorker(u)
			} else {
				c.reg.recordFailure(u)
			}
			c.rec.Record(tc.trace, dtrace.SpanDispatch, tc.job, attemptArg(attempts), start, lat, dispatchFlags)
			lastErr = err
			c.failovers.Add(1)
			if ctx.Err() != nil {
				c.jobsFailed.Add(1)
				return nil, fmt.Errorf("fleet: job %.8s: %w", id, lastErr)
			}
		}
		if round >= c.opt.DispatchRetries {
			break
		}
		c.retryRounds.Add(1)
		pause := c.backoff(round)
		c.rec.Record(tc.trace, dtrace.SpanBackoff, tc.job, attemptArg(round+1), c.rec.Now(), uint64(pause), 0)
		if err := sleepCtx(ctx, pause); err != nil {
			break
		}
	}
	c.jobsFailed.Add(1)
	if lastErr == nil {
		lastErr = errors.New("no dispatchable worker (breakers open or quarantined)")
	}
	return nil, fmt.Errorf("fleet: job %.8s failed after %d attempts over %d rounds: %w", id, attempts, rounds, lastErr)
}

// attemptArg clamps an attempt/round ordinal into a span's 16-bit arg.
func attemptArg(n int) uint16 {
	if n > 0xFFFF {
		return 0xFFFF
	}
	return uint16(n)
}

// verifyTraced digest-checks a payload like verifyDigest and records
// the check as a SpanVerify under tc (FlagCorrupt|FlagErr on
// mismatch). Untraced calls skip the span entirely.
func (c *Coordinator) verifyTraced(worker string, hdr http.Header, payload []byte, tc traceCtx) error {
	if tc.trace == 0 {
		return verifyDigest(worker, hdr, payload)
	}
	start := c.rec.Now()
	err := verifyDigest(worker, hdr, payload)
	end := c.rec.Now()
	var dur uint64
	if end > start {
		dur = end - start
	}
	var flags uint8
	if err != nil {
		flags = dtrace.FlagCorrupt | dtrace.FlagErr
	}
	c.rec.Record(tc.trace, dtrace.SpanVerify, tc.job, 0, start, dur, flags)
	return err
}

// retryAfterHint parses a Retry-After header in either RFC 9110 form
// — delta-seconds or an HTTP-date — capped at max. Absent or
// unparseable values fall back to max; a past date or zero delta
// becomes a short pause rather than a hot loop.
func retryAfterHint(v string, max time.Duration) time.Duration {
	d := max
	if ra, err := strconv.Atoi(v); err == nil && ra >= 0 {
		if hint := time.Duration(ra) * time.Second; hint < d {
			d = hint
		}
	} else if t, err := http.ParseTime(v); err == nil {
		//dstore:allow-wallclock an HTTP-date Retry-After is defined relative to real time
		if hint := time.Until(t); hint < d {
			d = hint
		}
	}
	if d <= 0 {
		d = 50 * time.Millisecond
	}
	return d
}

// runOn pushes one job through one worker: submit, honour
// backpressure, then take the result from the submission's cache hit
// or from awaitResult, digest-verified either way.
func (c *Coordinator) runOn(ctx context.Context, base, id string, spec []byte, tc traceCtx) (*jobOutcome, error) {
	for {
		code, hdr, body, err := c.doT(ctx, http.MethodPost, base+"/v1/runs", spec, tc)
		if err != nil {
			return nil, err
		}
		switch {
		case code == http.StatusOK:
			var rr runResp
			if err := json.Unmarshal(body, &rr); err != nil {
				return nil, fmt.Errorf("fleet: %s returned unparseable submission response: %v", base, err)
			}
			if len(rr.Result) == 0 {
				return nil, fmt.Errorf("fleet: %s returned 200 with no result", base)
			}
			if err := c.verifyTraced(base, hdr, rr.Result, tc); err != nil {
				return nil, err
			}
			return &jobOutcome{body: rr.Result, worker: base, cached: true}, nil
		case code == http.StatusAccepted:
			return c.awaitResult(ctx, base, id, tc)
		case code == http.StatusTooManyRequests:
			// Backpressure: honour Retry-After (capped) and resubmit to
			// the same worker — its queue draining is the fast path.
			if err := sleepCtx(ctx, retryAfterHint(hdr.Get("Retry-After"), retryAfterMax)); err != nil {
				return nil, err
			}
		case code == http.StatusBadRequest:
			return nil, &terminalError{fmt.Sprintf("fleet: %s rejected job spec: %s", base, body)}
		default:
			return nil, fmt.Errorf("fleet: submit to %s: %d: %s", base, code, body)
		}
	}
}

// awaitResult waits for an accepted job on one worker and returns its
// canonical result document, digest-verified. The worker holds each
// GET of the result path for up to serve.ResultWait and answers 409
// with the live status if the job is still queued or running, so the
// next GET goes out at once. A worker that answers in flight sooner
// (one built before /result waited) is asked at most every
// ResultWait/2 instead of back to back.
func (c *Coordinator) awaitResult(ctx context.Context, base, id string, tc traceCtx) (*jobOutcome, error) {
	for {
		//dstore:allow-wallclock result pacing is operational, never part of a simulation result
		t0 := time.Now()
		code, hdr, body, err := c.do(ctx, http.MethodGet, base+"/v1/runs/"+id+"/result", nil)
		if err != nil {
			return nil, err
		}
		if code == http.StatusOK {
			if err := c.verifyTraced(base, hdr, body, tc); err != nil {
				return nil, err
			}
			return &jobOutcome{body: body, worker: base}, nil
		}
		var rr runResp
		if code != http.StatusConflict || json.Unmarshal(body, &rr) != nil {
			return nil, fmt.Errorf("fleet: result of %.8s on %s: %d: %s", id, base, code, body)
		}
		switch rr.Status {
		case "queued", "running":
			//dstore:allow-wallclock result pacing is operational
			if err := sleepCtx(ctx, serve.ResultWait/2-time.Since(t0)); err != nil {
				return nil, err
			}
		case "failed":
			// Deterministic: the same spec fails identically on every
			// replica, so don't burn the fleet retrying it.
			return nil, &terminalError{fmt.Sprintf("fleet: job %.8s failed on %s: %s", id, base, rr.Error)}
		case "cancelled":
			// Shutdown or per-job timeout on that worker — another
			// replica may well complete it.
			return nil, fmt.Errorf("fleet: job %.8s cancelled on %s: %s", id, base, rr.Error)
		default:
			return nil, fmt.Errorf("fleet: result of %.8s on %s: unexpected status %q", id, base, rr.Status)
		}
	}
}

// canonicalizeSpec parses a submitted job spec and returns its
// normalized form, canonical serialization and content-addressed ID.
func canonicalizeSpec(raw []byte) (serve.JobSpec, []byte, string, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var spec serve.JobSpec
	if err := dec.Decode(&spec); err != nil {
		return spec, nil, "", fmt.Errorf("bad job spec: %v", err)
	}
	norm, err := spec.Normalize()
	if err != nil {
		return norm, nil, "", err
	}
	if _, err := norm.BuildConfig(); err != nil {
		return norm, nil, "", err
	}
	canon, err := norm.Canonical()
	if err != nil {
		return norm, nil, "", err
	}
	id, err := norm.ID()
	if err != nil {
		return norm, nil, "", err
	}
	return norm, canon, id, nil
}

// maxBodyBytes bounds submission bodies; specs and matrices are tiny.
const maxBodyBytes = 1 << 20

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// shedLoad refuses the request with 429 + Retry-After when the
// dispatch path is at its MaxPending bound — bounded queueing, so an
// overloaded coordinator degrades by deflecting rather than by
// accumulating unbounded in-flight work.
func (c *Coordinator) shedLoad(w http.ResponseWriter) bool {
	max := c.opt.MaxPending
	if max <= 0 || c.pending.Load() < int64(max) {
		return false
	}
	c.shed.Add(1)
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusTooManyRequests, "fleet: coordinator at capacity (%d dispatches in flight); retry later", max)
	return true
}

// handleSubmit implements POST /v1/runs at the fleet level: validate
// and canonicalize the spec locally (a bad spec never reaches a
// worker), route by hash ring, and answer synchronously with the
// worker's result — the coordinator absorbs the wait so clients see
// one round trip.
func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if c.shedLoad(w) {
		return
	}
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	_, canon, id, err := canonicalizeSpec(raw)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Single-run submissions trace under their own content address; a
	// caller-supplied trace header (a sweep re-entering through the
	// public API, or a client stitching its own trace) wins.
	tc := traceCtx{trace: dtrace.TraceIDFromHex(id), job: dtrace.JobNone}
	if trace, job, ok := dtrace.FromHeaders(r.Header); ok {
		tc = traceCtx{trace: trace, job: job}
	}
	out, err := c.runJob(r.Context(), id, canon, tc)
	if err != nil {
		code := http.StatusBadGateway
		var term *terminalError
		if errors.As(err, &term) {
			code = http.StatusUnprocessableEntity
		}
		if errors.Is(err, context.DeadlineExceeded) {
			code = http.StatusGatewayTimeout
		}
		writeError(w, code, "%v", err)
		return
	}
	w.Header().Set("X-Dstore-Worker", out.worker)
	w.Header().Set(serve.ResultDigestHeader, digestOf(out.body))
	writeJSON(w, http.StatusOK, runResp{ID: id, Status: "done", Cached: out.cached, Result: out.body})
}

// handleRunProxy forwards GET /v1/runs/{id}[/result|/trace] to the
// job's replicas in ring order, returning the first conclusive
// answer. A 404 from one worker is not conclusive — the job may live
// on a successor after a failover — so the walk continues and 404 is
// only returned once every replica has denied knowledge. Responses
// that advertise a content digest are verified before forwarding; a
// mismatch quarantines the worker and the walk moves on.
func (c *Coordinator) handleRunProxy(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	owners := c.reg.currentRing().owners(id)
	if len(owners) == 0 {
		writeError(w, http.StatusServiceUnavailable, "fleet: no workers registered")
		return
	}
	var lastCode int
	var lastHdr http.Header
	var lastBody []byte
	tried := 0
	for _, u := range owners {
		code, hdr, body, err := c.do(r.Context(), http.MethodGet, u+r.URL.Path, nil)
		if err != nil {
			c.reg.recordFailure(u)
			continue
		}
		tried++
		if code == http.StatusOK {
			if err := c.verifyProxied(u, r.URL.Path, hdr, body); err != nil {
				c.corrupt.Add(1)
				c.reg.quarantineWorker(u)
				continue
			}
		}
		if code != http.StatusNotFound {
			w.Header().Set("X-Dstore-Worker", u)
			copyHeader(w, hdr)
			w.WriteHeader(code)
			_, _ = w.Write(body)
			return
		}
		lastCode, lastHdr, lastBody = code, hdr, body
	}
	if tried == 0 {
		writeError(w, http.StatusBadGateway, "fleet: no worker reachable for %q", id)
		return
	}
	copyHeader(w, lastHdr)
	w.WriteHeader(lastCode)
	_, _ = w.Write(lastBody)
}

// verifyProxied digest-checks a proxied 200 body. Raw documents
// (/result, /trace) are covered whole; a status envelope's digest
// covers its embedded result field.
func (c *Coordinator) verifyProxied(worker, path string, hdr http.Header, body []byte) error {
	if hdr.Get(serve.ResultDigestHeader) == "" {
		return nil
	}
	payload := body
	if !strings.HasSuffix(path, "/result") && !strings.HasSuffix(path, "/trace") {
		var rr runResp
		if err := json.Unmarshal(body, &rr); err != nil {
			return &corruptError{worker: worker, detail: fmt.Sprintf("digest-bearing envelope unparseable: %v", err)}
		}
		payload = rr.Result
	}
	return verifyDigest(worker, hdr, payload)
}

func copyHeader(w http.ResponseWriter, hdr http.Header) {
	if ct := hdr.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if dg := hdr.Get(serve.ResultDigestHeader); dg != "" {
		w.Header().Set(serve.ResultDigestHeader, dg)
	}
}

// handleBenchmarks forwards GET /v1/benchmarks to any healthy worker
// — the inventory is identical fleet-wide.
func (c *Coordinator) handleBenchmarks(w http.ResponseWriter, r *http.Request) {
	_, states := c.reg.snapshot()
	for _, pass := range []bool{true, false} {
		for _, st := range states {
			if st.Healthy != pass {
				continue
			}
			code, hdr, body, err := c.do(r.Context(), http.MethodGet, st.URL+"/v1/benchmarks", nil)
			if err != nil || code != http.StatusOK {
				continue
			}
			w.Header().Set("X-Dstore-Worker", st.URL)
			copyHeader(w, hdr)
			_, _ = w.Write(body)
			return
		}
	}
	writeError(w, http.StatusServiceUnavailable, "fleet: no worker reachable")
}

// handleWorkerAdd implements POST /v1/workers: register a worker at
// runtime. The worker is probed synchronously so a live one enters
// the ring healthy and starts taking its key-space share immediately.
func (c *Coordinator) handleWorkerAdd(w http.ResponseWriter, r *http.Request) {
	var req struct {
		URL string `json:"url"`
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad registration: %v", err)
		return
	}
	u, err := c.reg.add(req.URL, false, false)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	//dstore:allow-wallclock probe deadline is operational
	pctx, cancel := context.WithTimeout(r.Context(), probeTimeout)
	c.reg.probeOne(pctx, u)
	cancel()
	_, states := c.reg.snapshot()
	for _, st := range states {
		if st.URL == u {
			writeJSON(w, http.StatusOK, st)
			return
		}
	}
	writeError(w, http.StatusInternalServerError, "fleet: worker %q vanished after registration", u)
}

// handleWorkerList implements GET /v1/workers.
func (c *Coordinator) handleWorkerList(w http.ResponseWriter, r *http.Request) {
	ring, states := c.reg.snapshot()
	writeJSON(w, http.StatusOK, map[string]any{
		"workers":     states,
		"ring_points": len(ring.points),
	})
}

// handleHealth implements GET /healthz. The coordinator is degraded —
// but alive — with zero healthy workers: proxying fails but
// registration still works.
func (c *Coordinator) handleHealth(w http.ResponseWriter, r *http.Request) {
	healthy, total := c.reg.healthyCount()
	status := "ok"
	if healthy == 0 {
		status = "no-healthy-workers"
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":  status,
		"workers": total,
		"healthy": healthy,
	})
}

package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"

	"dstore/internal/sim"
)

// workerState is what the coordinator knows about one dstore-serve
// node: static identity (the base URL, which is also its hash-ring
// identity) plus the latest health probe's findings and the breaker
// view derived from its failure history.
type workerState struct {
	URL string `json:"url"`
	// Healthy mirrors the breaker: true iff the breaker is closed, the
	// worker is not quarantined, and (for dynamically added workers)
	// at least one probe or dispatch has succeeded.
	Healthy bool `json:"healthy"`
	// Static records whether the worker came from the -workers list
	// (true) or POST /v1/workers (false).
	Static bool `json:"static"`
	// Breaker is the circuit state: "closed", "open", or "half-open".
	Breaker string `json:"breaker"`
	// ConsecutiveFailures counts failures since the last success while
	// the breaker is closed (it trips at the failure threshold).
	ConsecutiveFailures int `json:"consecutive_failures"`
	// Quarantined marks a worker that served a result whose digest did
	// not verify. It is excluded from dispatch until the quarantine
	// cooldown elapses and a probe succeeds.
	Quarantined bool `json:"quarantined"`
	// QueueDepth is the worker's inflight-job gauge from its last
	// /v1/stats scrape.
	QueueDepth uint64 `json:"queue_depth"`
	// CacheHitRate is hits/(hits+misses) from the worker's result
	// cache counters at the last scrape, 0 when it has seen no
	// submissions.
	CacheHitRate float64 `json:"cache_hit_rate"`
	// Executed is the worker's jobs-executed counter at the last
	// scrape (how much simulation work it has absorbed).
	Executed uint64 `json:"executed"`
}

// registry tracks fleet membership and health, owns the hash ring and
// the per-worker circuit breakers, and runs the periodic prober.
type registry struct {
	client             *http.Client
	vnodes             int
	failThreshold      int
	cooldown           time.Duration
	quarantineCooldown time.Duration
	// now is the clock for breaker transitions, injected so tests can
	// drive cooldowns deterministically.
	now func() time.Time

	mu      sync.Mutex
	workers map[string]*workerState
	brk     map[string]*breaker
	ring    *ring
	// rng drives the probe-interval jitter, seeded from Options.Seed
	// so a fleet's probe schedule is reproducible. Guarded by mu.
	rng *sim.Rand

	probes, probeFailures uint64
	// breaker/quarantine counters for /v1/metrics.
	trips, recloses, quarantines, requalified uint64
}

func newRegistry(client *http.Client, opt Options) *registry {
	return &registry{
		client:             client,
		vnodes:             opt.Vnodes,
		failThreshold:      opt.FailureThreshold,
		cooldown:           opt.BreakerCooldown,
		quarantineCooldown: opt.QuarantineCooldown,
		//dstore:allow-wallclock breaker cooldowns are operational fleet state, never simulation results
		now:     time.Now,
		workers: make(map[string]*workerState),
		brk:     make(map[string]*breaker),
		ring:    buildRing(nil, opt.Vnodes),
		rng:     sim.NewRand(opt.Seed ^ 0xFEE7C0DE),
	}
}

// normalizeWorkerURL validates and canonicalizes a worker base URL.
func normalizeWorkerURL(raw string) (string, error) {
	raw = strings.TrimRight(strings.TrimSpace(raw), "/")
	u, err := url.Parse(raw)
	if err != nil {
		return "", fmt.Errorf("fleet: bad worker url %q: %v", raw, err)
	}
	if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return "", fmt.Errorf("fleet: bad worker url %q (want http[s]://host[:port])", raw)
	}
	if u.Path != "" || u.RawQuery != "" || u.Fragment != "" {
		return "", fmt.Errorf("fleet: worker url %q must be a bare base URL", raw)
	}
	return u.Scheme + "://" + u.Host, nil
}

// add registers a worker (idempotent) and rebuilds the ring. The
// worker starts unhealthy until its first successful probe unless
// assumeHealthy is set (static -workers entries, so a fleet is usable
// the instant it boots). Its breaker starts closed either way — an
// unprobed dynamic worker is dispatchable, just ranked behind workers
// with a confirmed pulse.
func (r *registry) add(rawURL string, static, assumeHealthy bool) (string, error) {
	u, err := normalizeWorkerURL(rawURL)
	if err != nil {
		return "", err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if w, ok := r.workers[u]; ok {
		if assumeHealthy {
			w.Healthy = true
		}
		return u, nil
	}
	r.workers[u] = &workerState{URL: u, Healthy: assumeHealthy, Static: static, Breaker: bkClosed.String()}
	r.brk[u] = &breaker{}
	r.rebuildLocked()
	return u, nil
}

func (r *registry) rebuildLocked() {
	urls := make([]string, 0, len(r.workers))
	for u := range r.workers { //dstore:allow-maprange buildRing sorts its input
		urls = append(urls, u)
	}
	r.ring = buildRing(urls, r.vnodes)
}

// refreshLocked syncs a worker's display fields from its breaker.
func (r *registry) refreshLocked(u string) {
	w, b := r.workers[u], r.brk[u]
	if w == nil || b == nil {
		return
	}
	w.Breaker = b.state.String()
	w.ConsecutiveFailures = b.fails
	w.Quarantined = b.quarantined
	if b.state != bkClosed || b.quarantined {
		w.Healthy = false
	}
}

// snapshot returns the current ring and the health view. The ring is
// immutable; the states are copies.
func (r *registry) snapshot() (*ring, []workerState) {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]workerState, 0, len(r.workers))
	for _, w := range r.workers { //dstore:allow-maprange sorted below
		out = append(out, *w)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
	return r.ring, out
}

// currentRing returns the ring without copying worker state.
func (r *registry) currentRing() *ring {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring
}

// healthy reports whether url is currently believed healthy.
func (r *registry) healthy(url string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	w, ok := r.workers[url]
	return ok && w.Healthy
}

// healthyCount returns (healthy, total).
func (r *registry) healthyCount() (int, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, w := range r.workers { //dstore:allow-maprange count only
		if w.Healthy {
			n++
		}
	}
	return n, len(r.workers)
}

// quarantinedCount returns how many workers are quarantined.
func (r *registry) quarantinedCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, b := range r.brk { //dstore:allow-maprange count only
		if b.quarantined {
			n++
		}
	}
	return n
}

// dispatchOrder filters owners down to workers whose breakers admit a
// request right now (consuming half-open trial tokens), confirmed-
// healthy workers first. Quarantined and cooling (open) workers are
// excluded entirely; retry rounds in runJob re-evaluate, so an open
// breaker naturally becomes a half-open trial once its cooldown ends.
func (r *registry) dispatchOrder(owners []string) []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.now()
	var healthy, rest []string
	for _, u := range owners {
		b := r.brk[u]
		if b == nil || !b.allow(now, r.cooldown) {
			if b != nil {
				r.refreshLocked(u)
			}
			continue
		}
		r.refreshLocked(u)
		if w := r.workers[u]; w != nil && w.Healthy {
			healthy = append(healthy, u)
		} else {
			rest = append(rest, u)
		}
	}
	return append(healthy, rest...)
}

// recordFailure notes a dispatch-path failure against the worker's
// breaker. Unlike the old one-strike markUnhealthy, a single failure
// only increments the consecutive count; the worker leaves the ring
// walk once the threshold trips the breaker open.
func (r *registry) recordFailure(url string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	b := r.brk[url]
	if b == nil {
		return
	}
	if b.failure(r.now(), r.failThreshold) {
		r.trips++
	}
	r.refreshLocked(url)
}

// recordSuccess notes a dispatch-path success, reclosing a half-open
// breaker and resetting the consecutive-failure count.
func (r *registry) recordSuccess(url string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	b := r.brk[url]
	if b == nil {
		return
	}
	if b.success() {
		r.recloses++
	}
	if w := r.workers[url]; w != nil {
		w.Healthy = true
	}
	r.refreshLocked(url)
}

// quarantineWorker flags url as having served corrupt bytes: breaker
// forced open, excluded from dispatch until the quarantine cooldown
// elapses and a probe succeeds.
func (r *registry) quarantineWorker(url string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	b := r.brk[url]
	if b == nil {
		return
	}
	if !b.quarantined {
		r.quarantines++
	}
	b.quarantine(r.now())
	r.refreshLocked(url)
}

// probeAll scrapes every worker's /v1/stats once, updating health and
// the per-worker gauges. Returns after every probe completes.
func (r *registry) probeAll(ctx context.Context) {
	_, states := r.snapshot()
	var wg sync.WaitGroup
	for _, w := range states {
		wg.Add(1)
		go func(url string) {
			defer wg.Done()
			r.probeOne(ctx, url)
		}(w.URL)
	}
	wg.Wait()
}

// workerStats is the subset of dstore-serve's /v1/stats the
// coordinator consumes for its per-worker gauges.
type workerStats struct {
	Inflight uint64 `json:"dstore_serve_inflight_jobs"`
	Hits     uint64 `json:"dstore_serve_cache_hits_total"`
	Misses   uint64 `json:"dstore_serve_cache_misses_total"`
	Executed uint64 `json:"dstore_serve_jobs_executed_total"`
}

func (r *registry) probeOne(ctx context.Context, url string) {
	r.mu.Lock()
	r.probes++
	r.mu.Unlock()

	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/v1/stats", nil)
	if err != nil {
		r.recordProbe(url, nil, false)
		return
	}
	resp, err := r.client.Do(req)
	if err != nil {
		r.recordProbe(url, nil, false)
		return
	}
	defer resp.Body.Close()
	var st workerStats
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&st) != nil {
		r.recordProbe(url, nil, false)
		return
	}
	r.recordProbe(url, &st, true)
}

// recordProbe feeds a probe result through the worker's breaker. A
// successful probe is the rehabilitation path: it recloses an open or
// half-open breaker and — once the quarantine cooldown has elapsed —
// requalifies a quarantined worker.
func (r *registry) recordProbe(url string, st *workerStats, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	w, present := r.workers[url]
	b := r.brk[url]
	if !present || b == nil {
		return
	}
	now := r.now()
	if !ok {
		r.probeFailures++
		if b.failure(now, r.failThreshold) {
			r.trips++
		}
		r.refreshLocked(url)
		return
	}
	if b.quarantined {
		if !b.requalify(now, r.quarantineCooldown) {
			// Quarantine is sticky: a pulse alone does not clear it
			// before the cooldown.
			r.refreshLocked(url)
			return
		}
		r.requalified++
	} else if b.state == bkOpen && !b.allow(now, r.cooldown) {
		// Still cooling down; the probe success neither recloses nor
		// counts against the worker. The post-cooldown probe will.
		return
	}
	if b.success() {
		r.recloses++
	}
	w.Healthy = true
	w.QueueDepth = st.Inflight
	w.Executed = st.Executed
	if total := st.Hits + st.Misses; total > 0 {
		w.CacheHitRate = float64(st.Hits) / float64(total)
	} else {
		w.CacheHitRate = 0
	}
	r.refreshLocked(url)
}

// jitteredInterval spreads the probe period ±20% with seeded
// randomness, so several coordinators (or one restarted on the same
// seed state) don't probe every worker in lockstep.
func (r *registry) jitteredInterval(interval time.Duration) time.Duration {
	span := uint64(interval) / 5
	if span == 0 {
		return interval
	}
	r.mu.Lock()
	off := r.rng.Uint64n(2*span + 1)
	r.mu.Unlock()
	return interval - time.Duration(span) + time.Duration(off)
}

// probeLoop runs probeAll roughly every interval (jittered ±20%) until
// ctx is cancelled. A timer per round — rather than a ticker — lets
// each round draw fresh jitter, and the select exits promptly on
// cancellation even mid-wait.
func (r *registry) probeLoop(ctx context.Context, interval time.Duration) {
	for {
		//dstore:allow-wallclock fleet health probing is operational, never part of a simulation result
		t := time.NewTimer(r.jitteredInterval(interval))
		select {
		case <-ctx.Done():
			t.Stop()
			return
		case <-t.C:
		}
		//dstore:allow-wallclock probe deadline is operational
		pctx, cancel := context.WithTimeout(ctx, probeTimeout)
		r.probeAll(pctx)
		cancel()
	}
}

// probeCounts returns (probes, failures).
func (r *registry) probeCounts() (uint64, uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.probes, r.probeFailures
}

// breakerCounts returns (trips, recloses, quarantines, requalified).
func (r *registry) breakerCounts() (uint64, uint64, uint64, uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.trips, r.recloses, r.quarantines, r.requalified
}

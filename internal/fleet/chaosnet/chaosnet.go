// Package chaosnet is a fault-injecting reverse proxy for the fleet:
// it sits between the coordinator and one worker and perturbs the
// network path — added latency, connection resets, partitions,
// truncated response bodies, bit-flipped response bodies — from a
// seeded FaultPlan, the cluster-layer sibling of internal/chaos's
// in-simulator fault profiles (DESIGN.md §13).
//
// Determinism works per request index: request n draws its faults
// from sim.NewRand(seed mixed with n), so a given (seed, FaultPlan)
// produces the same fault decision for the n-th request through the
// proxy no matter how requests interleave. Targeted helpers
// (Partition, CorruptNext, TruncateNext) override the
// random plan for scripted scenarios — "corrupt exactly one result,
// then heal" — which is what TestFleetChaosE2E and
// TestFleetFaultWalkthrough in internal/fleet drive.
package chaosnet

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"dstore/internal/serve"
	"dstore/internal/sim"
)

// FaultPlan is the per-request fault distribution. Probabilities are
// independent draws in [0,1]; zero values inject nothing, so the zero
// plan is a faithful proxy.
type FaultPlan struct {
	// Latency is the probability of delaying a request by a uniform
	// draw from (0, MaxDelay].
	Latency  float64
	MaxDelay time.Duration
	// Reset is the probability of killing the client connection with
	// a TCP RST before any response bytes.
	Reset float64
	// Truncate is the probability of cutting a response body short:
	// the full Content-Length is declared, roughly half the bytes are
	// sent, then the connection aborts.
	Truncate float64
	// Corrupt is the probability of flipping one bit inside a
	// result-bearing response body, leaving headers (and the
	// advertised digest) intact — the lie integrity checking exists
	// to catch.
	Corrupt float64
}

// Counts reports what the proxy has injected, for test assertions.
type Counts struct {
	Requests    uint64 `json:"requests"`
	Delays      uint64 `json:"delays"`
	Resets      uint64 `json:"resets"`
	Partitioned uint64 `json:"partitioned"`
	Truncations uint64 `json:"truncations"`
	Corruptions uint64 `json:"corruptions"`
}

// Proxy forwards HTTP requests to one upstream worker, injecting
// faults per its seed and plan. Safe for concurrent use.
type Proxy struct {
	upstream *url.URL
	client   *http.Client
	seed     uint64
	plan     FaultPlan

	n atomic.Uint64 // request index; each request draws its own rng

	mu           sync.Mutex
	partitioned  bool
	corruptNext  int
	truncateNext int

	delays      atomic.Uint64
	resets      atomic.Uint64
	partitions  atomic.Uint64
	truncations atomic.Uint64
	corruptions atomic.Uint64
}

// New builds a proxy for the worker at upstream (a bare base URL).
func New(upstream string, seed uint64, plan FaultPlan) (*Proxy, error) {
	u, err := url.Parse(upstream)
	if err != nil {
		return nil, fmt.Errorf("chaosnet: bad upstream %q: %v", upstream, err)
	}
	if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return nil, fmt.Errorf("chaosnet: bad upstream %q (want http[s]://host[:port])", upstream)
	}
	return &Proxy{
		upstream: u,
		client:   &http.Client{},
		seed:     seed,
		plan:     plan,
	}, nil
}

// Partition switches the partition on or off. While partitioned,
// every connection is reset without reaching the worker — the worker
// is alive but unreachable, exactly the failure a network partition
// presents.
func (p *Proxy) Partition(on bool) {
	p.mu.Lock()
	p.partitioned = on
	p.mu.Unlock()
}

// CorruptNext schedules a bit flip inside the next n result-bearing
// responses (those advertising a content digest).
func (p *Proxy) CorruptNext(n int) {
	p.mu.Lock()
	p.corruptNext += n
	p.mu.Unlock()
}

// TruncateNext schedules truncation of the next n result-bearing
// responses.
func (p *Proxy) TruncateNext(n int) {
	p.mu.Lock()
	p.truncateNext += n
	p.mu.Unlock()
}

// Counts returns the injection tally so far.
func (p *Proxy) Counts() Counts {
	return Counts{
		Requests:    p.n.Load(),
		Delays:      p.delays.Load(),
		Resets:      p.resets.Load(),
		Partitioned: p.partitions.Load(),
		Truncations: p.truncations.Load(),
		Corruptions: p.corruptions.Load(),
	}
}

// splitmix64 is the same finalizer sim.Rand steps with; mixing the
// request index through it decorrelates per-request streams drawn
// from one seed.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// ServeHTTP implements the proxy.
func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	n := p.n.Add(1) - 1
	rng := sim.NewRand(p.seed ^ splitmix64(n))

	p.mu.Lock()
	partitioned := p.partitioned
	p.mu.Unlock()

	if partitioned {
		p.partitions.Add(1)
		p.abortConn(w)
		return
	}
	if rng.Bool(p.plan.Reset) {
		p.resets.Add(1)
		p.abortConn(w)
		return
	}
	if p.plan.MaxDelay > 0 && rng.Bool(p.plan.Latency) {
		d := time.Duration(1 + rng.Uint64n(uint64(p.plan.MaxDelay)))
		p.delays.Add(1)
		//dstore:allow-wallclock injected network latency is operational test tooling, never in a simulation result
		t := time.NewTimer(d)
		select {
		case <-r.Context().Done():
			t.Stop()
			return
		case <-t.C:
		}
	}

	code, hdr, body, err := p.forward(r)
	if err != nil {
		// The upstream itself is down or unreachable: surface it the
		// way a dead worker would, as a reset.
		p.abortConn(w)
		return
	}

	resultBearing := hdr.Get(serve.ResultDigestHeader) != ""
	corrupt, truncate := false, false
	if resultBearing {
		p.mu.Lock()
		if p.corruptNext > 0 {
			p.corruptNext--
			corrupt = true
		} else if p.truncateNext > 0 {
			p.truncateNext--
			truncate = true
		}
		p.mu.Unlock()
	}
	if !corrupt && !truncate && resultBearing && len(body) > 0 {
		if rng.Bool(p.plan.Corrupt) {
			corrupt = true
		} else if rng.Bool(p.plan.Truncate) {
			truncate = true
		}
	}

	if corrupt && len(body) > 0 {
		body = flipResultBit(body)
		p.corruptions.Add(1)
	}

	copyHeaders(w.Header(), hdr)
	if truncate && len(body) > 1 {
		// Declare the full length, send half, then abort: the client
		// sees a short read against a longer Content-Length.
		p.truncations.Add(1)
		w.Header().Set("Content-Length", fmt.Sprintf("%d", len(body)))
		w.WriteHeader(code)
		_, _ = w.Write(body[:len(body)/2])
		panic(http.ErrAbortHandler)
	}
	w.Header().Set("Content-Length", fmt.Sprintf("%d", len(body)))
	w.WriteHeader(code)
	_, _ = w.Write(body)
}

// forward relays the request to the upstream and slurps the response.
func (p *Proxy) forward(r *http.Request) (int, http.Header, []byte, error) {
	reqBody, err := io.ReadAll(r.Body)
	if err != nil {
		return 0, nil, nil, err
	}
	u := *p.upstream
	u.Path = r.URL.Path
	u.RawQuery = r.URL.RawQuery
	req, err := http.NewRequestWithContext(r.Context(), r.Method, u.String(), bytes.NewReader(reqBody))
	if err != nil {
		return 0, nil, nil, err
	}
	copyHeaders(req.Header, r.Header)
	resp, err := p.client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, nil, err
	}
	return resp.StatusCode, resp.Header, body, nil
}

// abortConn kills the client connection with a RST (SetLinger 0) so
// the client sees a connection reset, not a clean HTTP error — the
// signature of a partition or a crashed peer. Falls back to an
// aborted response when the writer cannot be hijacked.
func (p *Proxy) abortConn(w http.ResponseWriter) {
	hj, ok := w.(http.Hijacker)
	if !ok {
		panic(http.ErrAbortHandler)
	}
	conn, _, err := hj.Hijack()
	if err != nil {
		panic(http.ErrAbortHandler)
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetLinger(0)
	}
	_ = conn.Close()
}

// flipResultBit flips one bit inside the result payload region of
// body: past the `"result":` key when the body is an envelope, in the
// middle otherwise (raw result and trace documents). Headers — and
// with them the advertised digest — are untouched, so the response
// asserts a content address its bytes no longer match.
func flipResultBit(body []byte) []byte {
	out := make([]byte, len(body))
	copy(out, body)
	at := len(out) / 2
	if i := bytes.Index(out, []byte(`"result":`)); i >= 0 && i+12 < len(out) {
		at = i + 12
	}
	out[at] ^= 0x01
	return out
}

func copyHeaders(dst http.Header, src http.Header) {
	for k, vv := range src { //dstore:allow-maprange HTTP headers, order carried by net/http
		for _, v := range vv {
			dst[k] = append(dst[k], v)
		}
	}
}

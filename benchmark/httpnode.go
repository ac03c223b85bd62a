package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"dstore/internal/obs/dtrace"
	"dstore/internal/serve"
)

// loopback serves a handler over TCP on an ephemeral 127.0.0.1 port.
type loopback struct {
	srv  *http.Server
	ln   net.Listener
	done chan error
	url  string
}

func listen(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	lb := &loopback{srv: &http.Server{Handler: h}, ln: ln, done: make(chan error, 1), url: "http://" + ln.Addr().String()}
	go func() { lb.done <- lb.srv.Serve(ln) }()
	return lb, nil
}

// close stops accepting, waits for in-flight requests, then for the
// serving goroutine to return.
func (lb *loopback) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := lb.srv.Shutdown(ctx)
	if serr := <-lb.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// wallClock stamps distributed-tracing spans with wall-clock
// nanoseconds, as the daemons' command-line wrappers do.
func wallClock() uint64 { return uint64(time.Now().UnixNano()) }

// serveNode is one dstore-serve daemon on a loopback port.
type serveNode struct {
	s  *serve.Server
	lb *loopback
}

// startServe starts a daemon; mw, when non-nil, wraps its handler.
func startServe(opt serve.Options, mw func(http.Handler) http.Handler) (*serveNode, error) {
	opt.Clock = wallClock
	s, err := serve.New(opt)
	if err != nil {
		return nil, err
	}
	h := s.Handler()
	if mw != nil {
		h = mw(h)
	}
	lb, err := listen(h)
	if err != nil {
		s.Close()
		return nil, err
	}
	return &serveNode{s: s, lb: lb}, nil
}

// stop closes the listener, then drains the daemon and syncs its store.
func (n *serveNode) stop() error {
	err := n.lb.close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if serr := n.s.Shutdown(ctx); err == nil {
		err = serr
	}
	return err
}

// requestTimer is middleware that times the requests it passes to the
// wrapped handler and counts status polls.
type requestTimer struct {
	submit func(time.Duration) // each POST /v1/runs
	polls  atomic.Int64        // GET /v1/runs/{id}
}

func (rt *requestTimer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h.ServeHTTP(w, r)
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/runs":
			if rt.submit != nil {
				rt.submit(time.Since(t0))
			}
		case r.Method == http.MethodGet && isStatusPath(r.URL.Path):
			rt.polls.Add(1)
		}
	})
}

// isStatusPath matches /v1/runs/{id} but not its /result or /trace.
func isStatusPath(p string) bool {
	id, ok := strings.CutPrefix(p, "/v1/runs/")
	return ok && id != "" && !strings.Contains(id, "/")
}

// runEnvelope is dstore-serve's submission and status response.
type runEnvelope struct {
	ID     string          `json:"id"`
	Status string          `json:"status"`
	Cached bool            `json:"cached"`
	Result json.RawMessage `json:"result"`
	Error  string          `json:"error"`
}

// checkDigest verifies a result body against the digest its response
// advertised.
func checkDigest(hdr http.Header, body []byte) error {
	want := hdr.Get(serve.ResultDigestHeader)
	sum := sha256.Sum256(body)
	if got := hex.EncodeToString(sum[:]); got != want {
		return fmt.Errorf("result digest %.12s does not match advertised %.12s", got, want)
	}
	return nil
}

// fetch issues one request and returns status, headers and body.
func fetch(ctx context.Context, c *http.Client, method, url string, body []byte) (int, http.Header, []byte, error) {
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
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, b, err
}

// stats reads a daemon's or coordinator's GET /v1/stats counters.
func stats(c *http.Client, base string) (map[string]float64, error) {
	code, _, body, err := fetch(context.Background(), c, http.MethodGet, base+"/v1/stats", nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET %s/v1/stats: %d", base, code)
	}
	var m map[string]float64
	return m, json.Unmarshal(body, &m)
}

// histMean reads a histogram's mean (sum over count) from GET /metrics.
// Means, not bucket percentiles: the daemons' histograms are log2
// bucketed, so a percentile could only move in factors of two.
func histMean(c *http.Client, base, name string) (float64, error) {
	code, _, body, err := fetch(context.Background(), c, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return 0, err
	}
	if code != http.StatusOK {
		return 0, fmt.Errorf("GET %s/metrics: %d", base, code)
	}
	m, err := dtrace.Parse(string(body))
	if err != nil {
		return 0, err
	}
	var sum, count float64
	for _, s := range m.Samples {
		switch s.Name {
		case name + "_sum":
			sum = s.Value
		case name + "_count":
			count = s.Value
		}
	}
	return ratio(sum, count), nil
}

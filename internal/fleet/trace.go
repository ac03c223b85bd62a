// Fleet-wide trace export and profile capture: the coordinator's view
// of a sweep is only half the story — the queue waits, cache lookups
// and simulate spans live in the workers' span rings. GET
// /v1/sweeps/{id}/trace stitches both halves into one Chrome
// trace-event document by fanning the sweep's trace ID out to every
// registered worker and merging whatever each one recorded under it.
// POST /v1/profiles does the runtime equivalent for CPU time: a
// fleet-wide pprof capture, each profile stored content-addressed so a
// capture is citable by digest long after the incident.
package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"dstore/internal/obs/dtrace"
)

// traceErrorsHeader reports workers whose span rings could not be
// fetched during a trace export; the stitched document still renders
// from everything that answered.
const traceErrorsHeader = "X-Dstore-Trace-Errors"

// handleSweepTrace implements GET /v1/sweeps/{id}/trace: resolve the
// sweep's trace ID, dump the coordinator's own spans, fetch each
// registered worker's dump for the same trace (sequentially, in
// sorted-URL order — export is a debugging path, determinism beats
// latency here), and stitch the lot into one Chrome trace-event JSON
// document. Workers that fail to answer are skipped and named in
// X-Dstore-Trace-Errors rather than failing the export: a trace with
// a hole beats no trace during an incident.
func (c *Coordinator) handleSweepTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s := c.lookupSweep(id)
	if s == nil {
		writeError(w, http.StatusNotFound, "unknown sweep %q", id)
		return
	}
	if s.trace == 0 {
		writeError(w, http.StatusUnprocessableEntity, "sweep %q has no trace id", id)
		return
	}
	tid := dtrace.FormatTraceID(s.trace)
	dumps := []dtrace.Dump{c.rec.DumpTrace(s.trace)}
	var fetchErrs []string
	_, states := c.reg.snapshot() // sorted by URL: stable fan-out order
	for _, st := range states {
		d, err := c.fetchWorkerTrace(r, st.URL, tid)
		if err != nil {
			fetchErrs = append(fetchErrs, st.URL)
			continue
		}
		if len(d.Spans) == 0 {
			continue // worker never saw this trace; no process row for it
		}
		dumps = append(dumps, d)
	}
	c.traceExports.Add(1)
	if len(fetchErrs) > 0 {
		w.Header().Set(traceErrorsHeader, joinURLs(fetchErrs))
	}
	w.Header().Set("Content-Type", "application/json")
	_ = dtrace.Stitch(w, s.trace, dumps) // only a client hang-up can fail it
}

// fetchWorkerTrace pulls one worker's span dump for a trace, bounded
// by the federation timeout.
func (c *Coordinator) fetchWorkerTrace(r *http.Request, base, tid string) (dtrace.Dump, error) {
	//dstore:allow-wallclock federation deadline is operational
	ctx, cancel := context.WithTimeout(r.Context(), federationTimeout)
	defer cancel()
	code, _, body, err := c.do(ctx, http.MethodGet, base+"/v1/traces/"+tid, nil)
	if err != nil {
		return dtrace.Dump{}, err
	}
	if code != http.StatusOK {
		return dtrace.Dump{}, fmt.Errorf("fleet: trace from %s: %d", base, code)
	}
	var d dtrace.Dump
	if err := json.Unmarshal(body, &d); err != nil {
		return dtrace.Dump{}, fmt.Errorf("fleet: trace from %s unparseable: %v", base, err)
	}
	return d, nil
}

// profileManifest is the response to a fleet profile capture: one
// entry per worker that delivered a profile, keyed by the profile's
// content address in the coordinator's store.
type profileManifest struct {
	Seconds  int               `json:"seconds"`
	Profiles []capturedProfile `json:"profiles"`
	Errors   map[string]string `json:"errors,omitempty"`
}

type capturedProfile struct {
	Worker string `json:"worker"`
	Digest string `json:"digest"`
	Bytes  int    `json:"bytes"`
}

// profileNamespace is the store namespace for captured CPU profiles.
const profileNamespace = "profile"

// handleProfileCapture implements POST /v1/profiles: capture a CPU
// profile from every registered worker's /debug/pprof/profile (they
// must run with -pprof) and persist each one content-addressed in the
// coordinator's store. ?seconds=N bounds the capture (default 1,
// max 30). Answers 503 without a store (-store not set).
func (c *Coordinator) handleProfileCapture(w http.ResponseWriter, r *http.Request) {
	if c.profiles == nil {
		writeError(w, http.StatusServiceUnavailable, "fleet: profile capture needs a coordinator store (-store)")
		return
	}
	secs := 1
	if v := r.URL.Query().Get("seconds"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 || n > 30 {
			writeError(w, http.StatusBadRequest, "bad seconds %q (want 1..30)", v)
			return
		}
		secs = n
	}
	man := profileManifest{Seconds: secs}
	_, states := c.reg.snapshot()
	for _, st := range states {
		body, err := c.captureProfile(r, st.URL, secs)
		if err != nil {
			if man.Errors == nil {
				man.Errors = make(map[string]string)
			}
			man.Errors[st.URL] = err.Error()
			continue
		}
		digest := digestOf(body)
		if err := c.profiles.Put(profileNamespace, digest, body); err != nil {
			if man.Errors == nil {
				man.Errors = make(map[string]string)
			}
			man.Errors[st.URL] = err.Error()
			continue
		}
		c.profileCaps.Add(1)
		man.Profiles = append(man.Profiles, capturedProfile{Worker: st.URL, Digest: digest, Bytes: len(body)})
	}
	code := http.StatusOK
	if len(man.Profiles) == 0 {
		code = http.StatusBadGateway
	}
	writeJSON(w, code, man)
}

// captureProfile pulls one worker's CPU profile. The capture itself
// takes secs seconds by design, so the deadline is the federation
// timeout on top of the capture window, not instead of it.
func (c *Coordinator) captureProfile(r *http.Request, base string, secs int) ([]byte, error) {
	//dstore:allow-wallclock profile capture deadline is operational
	ctx, cancel := context.WithTimeout(r.Context(), federationTimeout+time.Duration(secs)*time.Second)
	defer cancel()
	u := base + "/debug/pprof/profile?seconds=" + strconv.Itoa(secs)
	code, _, body, err := c.do(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("fleet: profile from %s: %d: %.120s", base, code, body)
	}
	if len(body) == 0 {
		return nil, fmt.Errorf("fleet: profile from %s: empty body", base)
	}
	return body, nil
}

// joinURLs renders a URL list for a response header, comma-separated
// with each element escaped (URLs contain no commas once escaped).
func joinURLs(urls []string) string {
	out := ""
	for i, u := range urls {
		if i > 0 {
			out += ","
		}
		out += url.QueryEscape(u)
	}
	return out
}

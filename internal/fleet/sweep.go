package fleet

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"

	"dstore/internal/obs/dtrace"
)

// Matrix is a batch-sweep request: the cartesian product of the axes
// is expanded server-side into canonical job specs. Empty mode/input
// axes default to the single-job defaults; config axes are named
// after ConfigOverride's JSON fields, each with a list of values.
//
//	{"bench": ["MT","NN"],
//	 "mode": ["ccsm","direct-store"],
//	 "config": {"prefetch_depth": [0,2,4], "sms": [8,16]}}
//
// expands to 2×2×3×2 = 24 jobs.
type Matrix struct {
	Bench  []string                     `json:"bench"`
	Mode   []string                     `json:"mode,omitempty"`
	Input  []string                     `json:"input,omitempty"`
	Config map[string][]json.RawMessage `json:"config,omitempty"`
}

// maxSweepJobs caps one sweep's expansion; a matrix is a typo away
// from exponential.
const maxSweepJobs = 1 << 16

// sweepJob is one expanded matrix point.
type sweepJob struct {
	index int    // position in expansion order
	id    string // content address of the canonical spec
	canon []byte // canonical spec document (the dispatch body)
}

// expand materializes the matrix: every axis combination, normalized,
// validated and deduplicated by content address (two combinations
// that normalize identically — e.g. an explicit default — dispatch
// once).
func (m Matrix) expand() ([]sweepJob, error) {
	if len(m.Bench) == 0 {
		return nil, fmt.Errorf("fleet: sweep matrix needs at least one bench")
	}
	modes := m.Mode
	if len(modes) == 0 {
		modes = []string{""}
	}
	inputs := m.Input
	if len(inputs) == 0 {
		inputs = []string{""}
	}
	// Config axes in sorted name order so expansion order — and with
	// it every sweep artifact — is deterministic in the matrix.
	axes := make([]string, 0, len(m.Config))
	for name := range m.Config { //dstore:allow-maprange sorted below
		axes = append(axes, name)
	}
	sort.Strings(axes)
	total := len(m.Bench) * len(modes) * len(inputs)
	for _, name := range axes {
		vals := m.Config[name]
		if len(vals) == 0 {
			return nil, fmt.Errorf("fleet: sweep config axis %q has no values", name)
		}
		total *= len(vals)
		if total > maxSweepJobs {
			return nil, fmt.Errorf("fleet: sweep matrix expands past the %d-job cap", maxSweepJobs)
		}
	}
	if total > maxSweepJobs {
		return nil, fmt.Errorf("fleet: sweep matrix expands to %d jobs (cap %d)", total, maxSweepJobs)
	}

	var jobs []sweepJob
	seen := make(map[string]bool, total)
	// choice[i] selects the current value of config axis i.
	choice := make([]int, len(axes))
	for {
		for _, b := range m.Bench {
			for _, mode := range modes {
				for _, in := range inputs {
					spec := map[string]any{"bench": b}
					if mode != "" {
						spec["mode"] = mode
					}
					if in != "" {
						spec["input"] = in
					}
					if len(axes) > 0 {
						cfg := make(map[string]json.RawMessage, len(axes))
						for i, name := range axes {
							cfg[name] = m.Config[name][choice[i]]
						}
						spec["config"] = cfg
					}
					raw, err := json.Marshal(spec)
					if err != nil {
						return nil, err
					}
					_, canon, id, err := canonicalizeSpec(raw)
					if err != nil {
						return nil, fmt.Errorf("fleet: sweep point %s: %w", raw, err)
					}
					if seen[id] {
						continue
					}
					seen[id] = true
					jobs = append(jobs, sweepJob{index: len(jobs), id: id, canon: canon})
				}
			}
		}
		// Odometer over the config axes.
		i := len(axes) - 1
		for ; i >= 0; i-- {
			choice[i]++
			if choice[i] < len(m.Config[axes[i]]) {
				break
			}
			choice[i] = 0
		}
		if i < 0 {
			break
		}
	}
	return jobs, nil
}

// sweepID is the content address of the expanded sweep: the SHA-256
// over the ordered job IDs. Identical matrices — or distinct matrices
// that expand to the same job set — share a sweep.
func sweepID(jobs []sweepJob) string {
	h := sha256.New()
	for _, j := range jobs {
		h.Write([]byte(j.id))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Outcome is one finished sweep job on the wire: identity, placement
// and either the full canonical result document or a terminal error.
type Outcome struct {
	Seq   int    `json:"seq"`   // completion order within the sweep
	Index int    `json:"index"` // position in matrix expansion order
	ID    string `json:"id"`
	// Spec is the canonical job document the ID hashes — resubmitting
	// it verbatim reproduces this job.
	Spec   json.RawMessage `json:"spec"`
	Worker string          `json:"worker,omitempty"`
	// Cached reports the job was answered from the worker's result
	// cache (memory or disk tier) without re-simulating.
	Cached  bool            `json:"cached,omitempty"`
	Workers int             `json:"workers_tried,omitempty"`
	Result  json.RawMessage `json:"result,omitempty"`
	Error   string          `json:"error,omitempty"`
	// Trace is the sweep's 16-hex-digit trace ID — the key for
	// GET /v1/sweeps/{id}/trace and for correlating this outcome with
	// spans in the stitched export.
	Trace string `json:"trace,omitempty"`
}

// sweepRun is one sweep's lifecycle: outcomes append as jobs finish,
// watchers follow the slice under cond, and the report lands at
// completion. With a journal attached, every append is durable before
// any watcher can observe it — so a resume token a client holds is
// always at or behind what a restarted coordinator replays.
type sweepRun struct {
	id    string
	total int
	// trace is the sweep's trace ID (derived from id); rec receives
	// the coordinator-side spans this run emits (journal appends).
	trace uint64
	rec   *dtrace.Recorder

	mu       sync.Mutex
	cond     *sync.Cond
	outcomes []Outcome
	failed   int
	cached   int
	done     bool
	report   *Report
	jl       *sweepJournal
}

func newSweepRun(id string, total int) *sweepRun {
	s := &sweepRun{id: id, total: total}
	s.cond = sync.NewCond(&s.mu)
	return s
}

func (s *sweepRun) append(o Outcome) {
	s.mu.Lock()
	o.Seq = len(s.outcomes)
	s.outcomes = append(s.outcomes, o)
	if o.Error != "" {
		s.failed++
	}
	if o.Cached {
		s.cached++
	}
	// Journalled under the lock, after seq assignment and before the
	// broadcast: journal order is seq order, and no watcher sees an
	// outcome that is not on disk.
	if s.jl != nil && s.trace != 0 {
		jstart := s.rec.Now()
		s.jl.append(journalRecord{Type: journalTypeOutcome, SweepID: s.id, Outcome: &o})
		jend := s.rec.Now()
		var dur uint64
		if jend > jstart {
			dur = jend - jstart
		}
		s.rec.Record(s.trace, dtrace.SpanJournal, uint32(o.Index), 0, jstart, dur, 0)
	} else {
		s.jl.append(journalRecord{Type: journalTypeOutcome, SweepID: s.id, Outcome: &o})
	}
	s.mu.Unlock()
	s.cond.Broadcast()
}

func (s *sweepRun) finish(rep *Report) {
	s.mu.Lock()
	s.report = rep
	s.done = true
	if rep != nil {
		s.jl.append(journalRecord{Type: journalTypeReport, SweepID: s.id, Report: rep})
	}
	s.jl.close()
	s.jl = nil
	s.mu.Unlock()
	s.cond.Broadcast()
}

// abort releases watchers at coordinator shutdown without recording a
// verdict: the journal is closed with no report record, which is
// exactly the incomplete state the next boot resumes from.
func (s *sweepRun) abort() {
	s.mu.Lock()
	s.done = true
	s.jl.close()
	s.jl = nil
	s.mu.Unlock()
	s.cond.Broadcast()
}

// next blocks until outcome seq exists (returned with done=false) or
// the sweep is complete and drained (nil, true). wake lets callers
// interrupt the wait (client disconnect).
func (s *sweepRun) next(seq int, cancelled func() bool) (*Outcome, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if cancelled() {
			return nil, true
		}
		if seq < len(s.outcomes) {
			o := s.outcomes[seq]
			return &o, false
		}
		if s.done {
			return nil, true
		}
		s.cond.Wait()
	}
}

// status is the sweep's summary document.
func (s *sweepRun) status() map[string]any {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := map[string]any{
		"id":        s.id,
		"total":     s.total,
		"completed": len(s.outcomes),
		"failed":    s.failed,
		"cached":    s.cached,
		"done":      s.done,
		"degraded":  s.failed > 0,
	}
	if s.report != nil {
		st["report"] = s.report
	}
	return st
}

// startSweep registers (or rejoins) the sweep for the expanded job
// set and launches its dispatch pool. The sweep is content-addressed:
// resubmitting a running or finished matrix attaches to the existing
// run instead of re-dispatching the fleet.
func (c *Coordinator) startSweep(jobs []sweepJob) (*sweepRun, bool) {
	id := sweepID(jobs)
	c.sweepMu.Lock()
	if s, ok := c.sweeps[id]; ok {
		c.sweepMu.Unlock()
		return s, false
	}
	s := newSweepRun(id, len(jobs))
	s.trace = dtrace.TraceIDFromHex(id)
	s.rec = c.rec
	if c.opt.JournalDir != "" {
		if jl, err := c.newSweepJournal(id, jobs); err == nil {
			s.jl = jl
		} else {
			// A sweep that cannot journal still runs; it just cannot
			// survive a coordinator crash.
			c.journalErrors.Add(1)
		}
	}
	c.sweeps[id] = s
	c.sweepMu.Unlock()

	c.sweepsRun.Add(1)
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		c.runSweep(s, jobs)
	}()
	return s, true
}

// runSweep drains the job set through a bounded dispatch pool and
// finishes with the aggregate report.
func (c *Coordinator) runSweep(s *sweepRun, jobs []sweepJob) {
	workers := c.opt.SweepWorkers
	if workers > len(jobs) {
		workers = len(jobs)
	}
	feed := make(chan sweepJob)
	sweepStart := c.rec.Now()
	var wg sync.WaitGroup
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer wg.Done()
			for j := range feed {
				// Queue wait at the coordinator: sweep start to the moment
				// a pool slot picked this job up.
				if s.trace != 0 {
					pickup := c.rec.Now()
					var wait uint64
					if pickup > sweepStart {
						wait = pickup - sweepStart
					}
					c.rec.Record(s.trace, dtrace.SpanQueueWait, uint32(j.index), 0, sweepStart, wait, 0)
				}
				out, err := c.runJob(c.ctx, j.id, j.canon, traceCtx{trace: s.trace, job: uint32(j.index)})
				if err != nil && c.ctx.Err() != nil {
					// Coordinator shutdown, not a job verdict: leave the
					// job un-journalled so a restart re-dispatches it.
					continue
				}
				o := Outcome{Index: j.index, ID: j.id, Spec: j.canon}
				if s.trace != 0 {
					o.Trace = dtrace.FormatTraceID(s.trace)
				}
				if err != nil {
					o.Error = err.Error()
				} else {
					o.Worker = out.worker
					o.Cached = out.cached
					o.Workers = out.workers
					o.Result = out.body
				}
				s.append(o)
			}
		}()
	}
	for _, j := range jobs {
		select {
		case feed <- j:
		case <-c.ctx.Done():
		}
	}
	close(feed)
	wg.Wait()

	if c.ctx.Err() != nil {
		s.abort()
		return
	}
	s.mu.Lock()
	outcomes := make([]Outcome, len(s.outcomes))
	copy(outcomes, s.outcomes)
	s.mu.Unlock()
	rep := c.buildReport(s.id, s.total, outcomes)
	if rep.Degraded {
		c.sweepsDegraded.Add(1)
	}
	// Count the sweep before finish hands its report to the watchers,
	// so a client that has read the report scrapes it as completed.
	c.sweepsDone.Add(1)
	s.finish(rep)
}

// handleSweepSubmit implements POST /v1/sweeps: expand the matrix,
// start (or rejoin) the content-addressed sweep, and stream outcomes
// to the caller as they land — Server-Sent Events when the client
// asks for text/event-stream, newline-delimited JSON otherwise — with
// the aggregate report as the final event.
func (c *Coordinator) handleSweepSubmit(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	var m Matrix
	if err := dec.Decode(&m); err != nil {
		writeError(w, http.StatusBadRequest, "bad sweep matrix: %v", err)
		return
	}
	expandStart := c.rec.Now()
	jobs, err := m.expand()
	expandEnd := c.rec.Now()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if _, total := c.reg.healthyCount(); total == 0 {
		writeError(w, http.StatusServiceUnavailable, "fleet: no workers registered")
		return
	}
	s, started := c.startSweep(jobs)
	// The expansion span is recorded only on a fresh start: a rejoin of
	// a running (or finished) sweep did not expand anything the trace
	// should account for, and must not change the export.
	if started && s.trace != 0 {
		var dur uint64
		if expandEnd > expandStart {
			dur = expandEnd - expandStart
		}
		c.rec.Record(s.trace, dtrace.SpanExpand, dtrace.JobNone, attemptArg(len(jobs)), expandStart, dur, 0)
	}
	c.streamSweep(w, r, s)
}

// handleSweepStream implements GET /v1/sweeps/{id}/stream: re-attach
// a stream to a running (or finished — events replay from the start)
// sweep.
func (c *Coordinator) handleSweepStream(w http.ResponseWriter, r *http.Request) {
	s := c.lookupSweep(r.PathValue("id"))
	if s == nil {
		writeError(w, http.StatusNotFound, "unknown sweep %q", r.PathValue("id"))
		return
	}
	c.streamSweep(w, r, s)
}

// resumeSeq reads the client's resume position: a standard SSE
// `Last-Event-ID` header (the id of the last event it saw — resume
// after it), or a `?from=N` query parameter (resume at N) for NDJSON
// clients. Default is 0: full replay.
func resumeSeq(r *http.Request) int {
	if lei := r.Header.Get("Last-Event-ID"); lei != "" {
		if n, err := strconv.Atoi(lei); err == nil && n >= 0 {
			return n + 1
		}
	}
	if f := r.URL.Query().Get("from"); f != "" {
		if n, err := strconv.Atoi(f); err == nil && n >= 0 {
			return n
		}
	}
	return 0
}

// streamSweep writes the sweep's event stream: every outcome from the
// client's resume position (seq 0 by default, so streams attached
// late replay history first and the view is complete regardless of
// attach time), then the report event once the sweep completes. Each
// result event carries its seq as the SSE event id, so a client
// reconnecting — even to a restarted coordinator — resumes exactly
// where its stream broke via Last-Event-ID.
func (c *Coordinator) streamSweep(w http.ResponseWriter, r *http.Request, s *sweepRun) {
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.Header().Set("X-Dstore-Sweep", s.id)
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	flush := func() {
		if fl != nil {
			fl.Flush()
		}
	}
	flush()

	ctx := r.Context()
	// A client disconnect must wake a blocked next(); the sweep's cond
	// only pulses on sweep progress.
	stopWake := context.AfterFunc(ctx, s.cond.Broadcast)
	defer stopWake()
	cancelled := func() bool { return ctx.Err() != nil }

	writeEvent := func(event string, id int, v any) bool {
		b, err := json.Marshal(v)
		if err != nil {
			return false
		}
		if sse {
			if id >= 0 {
				_, err = fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", id, event, b)
			} else {
				_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, b)
			}
		} else {
			_, err = fmt.Fprintf(w, "{\"event\":%q,\"data\":%s}\n", event, b)
		}
		if err != nil {
			return false
		}
		flush()
		return true
	}

	for seq := resumeSeq(r); ; seq++ {
		o, drained := s.next(seq, cancelled)
		if drained {
			break
		}
		if !writeEvent("result", o.Seq, o) {
			return
		}
		c.streamed.Add(1)
	}
	if cancelled() {
		return
	}
	s.mu.Lock()
	rep := s.report
	s.mu.Unlock()
	if rep != nil {
		writeEvent("report", -1, rep)
	}
}

func (c *Coordinator) lookupSweep(id string) *sweepRun {
	c.sweepMu.Lock()
	defer c.sweepMu.Unlock()
	return c.sweeps[id]
}

// handleSweepList implements GET /v1/sweeps.
func (c *Coordinator) handleSweepList(w http.ResponseWriter, r *http.Request) {
	c.sweepMu.Lock()
	ids := make([]string, 0, len(c.sweeps))
	for id := range c.sweeps { //dstore:allow-maprange sorted below
		ids = append(ids, id)
	}
	c.sweepMu.Unlock()
	sort.Strings(ids)
	out := make([]map[string]any, 0, len(ids))
	for _, id := range ids {
		if s := c.lookupSweep(id); s != nil {
			out = append(out, s.status())
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"sweeps": out})
}

// handleSweepStatus implements GET /v1/sweeps/{id}.
func (c *Coordinator) handleSweepStatus(w http.ResponseWriter, r *http.Request) {
	s := c.lookupSweep(r.PathValue("id"))
	if s == nil {
		writeError(w, http.StatusNotFound, "unknown sweep %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, s.status())
}

// handleSweepReport implements GET /v1/sweeps/{id}/report: the
// aggregate report's benchmark-text rendering (go test -bench
// format), 409 while the sweep is still running.
func (c *Coordinator) handleSweepReport(w http.ResponseWriter, r *http.Request) {
	s := c.lookupSweep(r.PathValue("id"))
	if s == nil {
		writeError(w, http.StatusNotFound, "unknown sweep %q", r.PathValue("id"))
		return
	}
	s.mu.Lock()
	rep := s.report
	s.mu.Unlock()
	if rep == nil {
		writeError(w, http.StatusConflict, "sweep %q still running", s.id)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write([]byte(rep.BenchText))
}

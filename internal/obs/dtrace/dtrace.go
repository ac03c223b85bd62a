// Package dtrace is the fleet's distributed-tracing layer: a
// deterministic, zero-dependency span recorder threaded through the
// coordinator and every worker. It reuses the single-process
// observer's code, not just its design: spans are 32-byte packed
// records in an obs.Ring (overwrite oldest, count drops), and Stitch
// renders through obs.TraceWriter. On top it adds what a fleet needs:
// a nil-safe Begin/End span API, a trace context that propagates
// across process boundaries in HTTP headers, and the Dump wire form
// that lets the coordinator stitch per-process rings into one
// multi-process Chrome trace.
//
// Determinism contract: the package never reads the wall clock. Time
// comes from an injected obs.Clock (the daemons inject time.Now at the
// cmd layer; tests inject stepped or constant clocks), and when no
// clock is given the recorder falls back to a per-recorder monotonic
// sequence — orderings stay meaningful, absolute values do not.
// Exported span lists are sorted by value, not by arrival, so
// concurrent schedules that record the same work produce
// byte-identical exports.
package dtrace

import (
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"dstore/internal/obs"
)

// SpanKind identifies one lifecycle stage of a job or sweep.
type SpanKind uint8

// Span kinds cover the full dispatch lifecycle, coordinator and worker
// side. The set is closed: exporters render names from this table and
// the spanbalance lint keys off the Begin/End pairing, so new stages
// must be added here rather than ad hoc.
const (
	// SpanExpand is the coordinator expanding a sweep matrix into jobs.
	SpanExpand SpanKind = iota
	// SpanDispatch is one coordinator dispatch attempt against one
	// worker (Arg carries the attempt number within the job).
	SpanDispatch
	// SpanBackoff is the coordinator sleeping between retry rounds
	// (Arg carries the round number).
	SpanBackoff
	// SpanQueueWait is time a job spent queued before execution.
	SpanQueueWait
	// SpanCacheLookup is a worker result-cache probe (FlagHit on hit).
	SpanCacheLookup
	// SpanSnapshot is a worker snapshot-cache probe (FlagHit when the
	// run resumed from a warm prefix).
	SpanSnapshot
	// SpanSimulate is the simulation run itself.
	SpanSimulate
	// SpanVerify is an end-to-end result digest check (FlagCorrupt on
	// mismatch).
	SpanVerify
	// SpanJournal is one sweep-journal append.
	SpanJournal

	// NumSpanKinds bounds the kind space.
	NumSpanKinds
)

// kindNames renders span kinds in exports; indexed by SpanKind.
var kindNames = [NumSpanKinds]string{
	"expand", "dispatch", "backoff", "queue-wait", "cache-lookup",
	"snapshot", "simulate", "verify", "journal-append",
}

// Name returns the export name of the kind, or "unknown".
func (k SpanKind) Name() string {
	if k >= NumSpanKinds {
		return "unknown"
	}
	return kindNames[k]
}

// KindByName is the inverse of SpanKind.Name; ok is false for names
// outside the taxonomy.
func KindByName(name string) (SpanKind, bool) {
	for k := SpanKind(0); k < NumSpanKinds; k++ {
		if kindNames[k] == name {
			return k, true
		}
	}
	return 0, false
}

// Span outcome flag bits.
const (
	// FlagHit marks a cache/snapshot lookup that hit.
	FlagHit uint8 = 1 << iota
	// FlagErr marks a stage that failed.
	FlagErr
	// FlagCorrupt marks a digest verification mismatch.
	FlagCorrupt
	// FlagCached marks a dispatch answered from the worker's cache.
	FlagCached
)

// JobNone is the Job value for spans not tied to one job (for example
// sweep expansion). Exports render it as tid -1.
const JobNone = ^uint32(0)

// Span is one recorded lifecycle stage, packed to 32 bytes so a
// 16k-span ring costs 512 KiB and recording is one copy, no pointers.
// Job is the job's index in sweep expansion order (sweeps are capped at
// 1<<16 jobs, so it fits uint32 with room for JobNone); Arg is
// kind-specific (attempt or round number); Start and Dur are in the
// recorder clock's unit (nanoseconds under the daemons' injected
// wall clock).
type Span struct {
	Trace uint64
	Start uint64
	Dur   uint64
	Job   uint32
	Kind  SpanKind
	Flags uint8
	Arg   uint16
}

// less orders spans by value — the export order. Trace first so
// multi-trace dumps group; record order never matters, which is what
// makes concurrent schedules export byte-identically.
func (s Span) less(o Span) bool {
	if s.Trace != o.Trace {
		return s.Trace < o.Trace
	}
	if s.Job != o.Job {
		return s.Job < o.Job
	}
	if s.Kind != o.Kind {
		return s.Kind < o.Kind
	}
	if s.Arg != o.Arg {
		return s.Arg < o.Arg
	}
	if s.Start != o.Start {
		return s.Start < o.Start
	}
	if s.Dur != o.Dur {
		return s.Dur < o.Dur
	}
	return s.Flags < o.Flags
}

// Options configures a Recorder.
type Options struct {
	// Clock supplies timestamps. Nil falls back to a per-recorder
	// monotonic sequence: orderings hold, absolute values are call
	// counts.
	Clock obs.Clock
	// Process names this recorder's process row in stitched exports
	// ("coordinator", "worker-0", ...). Defaults to "dstore".
	Process string
}

// Recorder is a bounded, concurrency-safe span ring. All methods are
// safe on a nil *Recorder (no-ops / zeros), so call sites need no
// tracing-enabled branches.
type Recorder struct {
	clock   obs.Clock
	process string

	step atomic.Uint64 // fallback clock
	open atomic.Int64  // spans begun but not yet ended

	mu   sync.Mutex
	ring obs.Ring[Span]
}

// ringCap is the number of spans a recorder retains (512 KiB).
const ringCap = 16384

// New returns a Recorder. Zero Options are usable.
func New(opt Options) *Recorder {
	if opt.Process == "" {
		opt.Process = "dstore"
	}
	return &Recorder{
		clock:   opt.Clock,
		process: opt.Process,
		ring:    obs.NewRing[Span](ringCap),
	}
}

// Process returns the recorder's process name (nil-safe).
func (r *Recorder) Process() string {
	if r == nil {
		return ""
	}
	return r.process
}

// Now returns the current clock reading (nil-safe). With no injected
// clock it advances the fallback sequence.
func (r *Recorder) Now() uint64 {
	if r == nil {
		return 0
	}
	if r.clock != nil {
		return r.clock()
	}
	return r.step.Add(1)
}

// ActiveSpan is an in-flight span returned by Begin. It is a value —
// beginning and ending a span allocates nothing — and the zero
// ActiveSpan (from a nil recorder or an empty trace) ends as a no-op.
type ActiveSpan struct {
	r     *Recorder
	trace uint64
	start uint64
	job   uint32
	kind  SpanKind
	arg   uint16
}

// Begin opens a span; the caller must End it on every return path (the
// spanbalance lint enforces this statically, Open checks it at
// runtime). A zero trace means "not traced" and records nothing.
func (r *Recorder) Begin(trace uint64, kind SpanKind, job uint32, arg uint16) ActiveSpan {
	if r == nil || trace == 0 {
		return ActiveSpan{}
	}
	r.open.Add(1)
	return ActiveSpan{r: r, trace: trace, start: r.Now(), job: job, kind: kind, arg: arg}
}

// End closes the span with the given outcome flags.
func (s ActiveSpan) End(flags uint8) {
	if s.r == nil {
		return
	}
	now := s.r.Now()
	var dur uint64
	if now > s.start {
		dur = now - s.start
	}
	s.r.record(Span{Trace: s.trace, Start: s.start, Dur: dur, Job: s.job, Kind: s.kind, Flags: flags, Arg: s.arg})
	s.r.open.Add(-1)
}

// Record stores a span whose bounds are already known (for example
// queue wait, measured submit→start). A zero trace records nothing.
func (r *Recorder) Record(trace uint64, kind SpanKind, job uint32, arg uint16, start, dur uint64, flags uint8) {
	if r == nil || trace == 0 {
		return
	}
	r.record(Span{Trace: trace, Start: start, Dur: dur, Job: job, Kind: kind, Flags: flags, Arg: arg})
}

// record appends to the ring, overwriting oldest past capacity.
func (r *Recorder) record(s Span) {
	r.mu.Lock()
	r.ring.Add(s)
	r.mu.Unlock()
}

// Spans returns the retained spans for one trace in export order
// (nil-safe). A zero trace returns every retained span.
func (r *Recorder) Spans(trace uint64) []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	all := r.ring.Snapshot()
	r.mu.Unlock()
	out := all[:0]
	for _, s := range all {
		if trace == 0 || s.Trace == trace {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].less(out[j]) })
	return out
}

// Counts returns total spans recorded and spans dropped by ring
// overwrite (nil-safe).
func (r *Recorder) Counts() (recorded, dropped uint64) {
	if r == nil {
		return 0, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.Recorded(), r.ring.Dropped()
}

// Open returns the number of spans begun but not yet ended (nil-safe).
// Tests assert it returns to zero — the runtime half of the
// spanbalance invariant.
func (r *Recorder) Open() int64 {
	if r == nil {
		return 0
	}
	return r.open.Load()
}

// Trace-context propagation headers. The coordinator stamps both on
// every worker call; workers record their spans under the received
// trace and job index so the coordinator can stitch the rings back
// together by trace ID alone — no per-span parent IDs to keep
// deterministic under concurrency.
const (
	// TraceHeader carries the 64-bit trace ID as 16 hex digits.
	TraceHeader = "X-Dstore-Trace-Id"
	// SpanHeader carries the job's index in sweep expansion order.
	SpanHeader = "X-Dstore-Span-Id"
)

// SetHeaders stamps the trace context onto an outgoing request. A zero
// trace stamps nothing.
func SetHeaders(h http.Header, trace uint64, job uint32) {
	if trace == 0 {
		return
	}
	h.Set(TraceHeader, FormatTraceID(trace))
	h.Set(SpanHeader, strconv.FormatUint(uint64(job), 10))
}

// FromHeaders recovers the trace context from an incoming request.
// Absent or malformed headers return ok == false: the request is
// simply untraced.
func FromHeaders(h http.Header) (trace uint64, job uint32, ok bool) {
	t := h.Get(TraceHeader)
	if t == "" {
		return 0, 0, false
	}
	tv, err := strconv.ParseUint(t, 16, 64)
	if err != nil || tv == 0 {
		return 0, 0, false
	}
	job64 := uint64(JobNone)
	if s := h.Get(SpanHeader); s != "" {
		job64, err = strconv.ParseUint(s, 10, 32)
		if err != nil {
			job64 = uint64(JobNone)
		}
	}
	return tv, uint32(job64), true
}

// FormatTraceID renders a trace ID as 16 hex digits.
func FormatTraceID(trace uint64) string {
	const hexdigits = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = hexdigits[trace&0xf]
		trace >>= 4
	}
	return string(b[:])
}

// TraceIDFromHex derives a trace ID from a content-addressed ID (a
// sha256 hex digest): the first 16 hex digits as a uint64. Sweep and
// job IDs are already collision-resistant, so truncation keeps the
// derivation deterministic without new state. IDs shorter than 16
// digits or non-hex hash to 0 (untraced).
func TraceIDFromHex(id string) uint64 {
	if len(id) < 16 {
		return 0
	}
	v, err := strconv.ParseUint(id[:16], 16, 64)
	if err != nil {
		return 0
	}
	return v
}

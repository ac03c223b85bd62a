package dtrace

import (
	"io"
	"sort"
	"strconv"

	"dstore/internal/obs"
)

// Dump is one process's spans for one trace — the wire form workers
// serve from GET /v1/traces/{tid} and the coordinator stitches. Spans
// are in export order and Seq is each span's position in it, so a
// re-fetched dump never renumbers (the ring only ever appends spans
// that sort into place; replayed reads are pure).
type Dump struct {
	// Process names the process row ("coordinator", "worker-0", ...).
	Process string `json:"process"`
	// Trace is the 16-hex-digit trace ID.
	Trace string `json:"trace"`
	// Dropped counts ring overwrites in the source recorder — a
	// non-zero value means the trace may be incomplete.
	Dropped uint64 `json:"dropped,omitempty"`
	// Spans holds the retained spans in export order.
	Spans []DumpSpan `json:"spans"`
}

// DumpSpan is the JSON form of one Span.
type DumpSpan struct {
	Seq   int    `json:"seq"`
	Job   int64  `json:"job"` // -1 when the span is not tied to one job
	Kind  string `json:"kind"`
	Arg   uint16 `json:"arg"`
	Flags uint8  `json:"flags"`
	Start uint64 `json:"start"`
	Dur   uint64 `json:"dur"`
}

// DumpTrace exports the recorder's spans for one trace (nil-safe).
func (r *Recorder) DumpTrace(trace uint64) Dump {
	spans := r.Spans(trace)
	_, dropped := r.Counts()
	d := Dump{
		Process: r.Process(),
		Trace:   FormatTraceID(trace),
		Dropped: dropped,
		Spans:   make([]DumpSpan, len(spans)),
	}
	for i, s := range spans {
		job := int64(s.Job)
		if s.Job == JobNone {
			job = -1
		}
		d.Spans[i] = DumpSpan{
			Seq:   i,
			Job:   job,
			Kind:  s.Kind.Name(),
			Arg:   s.Arg,
			Flags: s.Flags,
			Start: s.Start,
			Dur:   s.Dur,
		}
	}
	return d
}

// Stitch streams per-process dumps to w as one Chrome trace-event JSON
// document, through the same writer the simulator's tracer uses: one
// named process row per node (metadata records first), then every span
// as a complete ("X") event with tid = job index, then the summed drop
// count and the trace ID as otherData. Processes render sorted by name
// and spans in dump order, so the output is byte-deterministic given
// deterministic dumps — the acceptance bar for trace exports.
// Timestamps pass through in the recorder clock's unit (nanoseconds
// under the daemons' clock).
func Stitch(w io.Writer, trace uint64, dumps []Dump) error {
	sorted := make([]Dump, len(dumps))
	copy(sorted, dumps)
	// Stable: two processes configured with the same name keep the
	// caller's (deterministic) dump order instead of an arbitrary one.
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Process < sorted[j].Process })

	tw := obs.NewTraceWriter(w)
	for pid, d := range sorted {
		tw.Event(obs.TraceEvent{Name: "process_name", Ph: "M", Pid: pid, Args: [][2]string{{"name", d.Process}}})
	}
	var dropped uint64
	for pid, d := range sorted {
		dropped += d.Dropped
		for _, s := range d.Spans {
			tw.Event(obs.TraceEvent{
				Name: s.Kind, Cat: "dtrace", Ph: "X",
				Ts: s.Start, Dur: s.Dur, Pid: pid, Tid: s.Job,
				Args: [][2]string{
					{"arg", strconv.FormatUint(uint64(s.Arg), 10)},
					{"flags", strconv.FormatUint(uint64(s.Flags), 10)},
				},
			})
		}
	}
	return tw.Close(
		[2]string{"dropped", strconv.FormatUint(dropped, 10)},
		[2]string{"trace", FormatTraceID(trace)},
	)
}

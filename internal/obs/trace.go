package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"

	"dstore/internal/memsys"
)

// TraceEvent is one record in the Chrome trace-event JSON format
// (loadable by Perfetto and chrome://tracing). Ts and Dur pass through
// in the caller's clock domain: simulation ticks from the Observer,
// recorder-clock nanoseconds from dtrace.
type TraceEvent struct {
	Name string
	Ph   string // "M" metadata, "i" instant, "X" complete
	Ts   uint64
	Dur  uint64 // written for every "X" event, zero included, and no other
	Pid  int
	Tid  int64
	S    string      // instant scope; omitted when empty
	Cat  string      // omitted when empty
	Args [][2]string // key/value pairs in the given order; omitted when empty
}

// TraceWriter streams one Chrome trace-event JSON document: the event
// array, one event per line, then an optional otherData object. It
// holds no more than the event being written, and identical event
// streams give identical bytes. The first write error stops all output
// and is returned by Close.
type TraceWriter struct {
	w   io.Writer
	buf []byte
	n   int
	err error
}

// NewTraceWriter starts a trace document on w.
func NewTraceWriter(w io.Writer) *TraceWriter {
	t := &TraceWriter{w: w}
	t.write([]byte("{\"traceEvents\":[\n"))
	return t
}

// Event writes one event, in the field order name, ph, ts, dur, pid,
// tid, s, cat, args.
func (t *TraceWriter) Event(ev TraceEvent) {
	b := t.buf
	if t.n > 0 {
		b = append(b, ",\n"...)
	}
	t.n++
	b = appendString(append(b, `{"name":`...), ev.Name)
	b = appendString(append(b, `,"ph":`...), ev.Ph)
	b = strconv.AppendUint(append(b, `,"ts":`...), ev.Ts, 10)
	if ev.Ph == "X" {
		b = strconv.AppendUint(append(b, `,"dur":`...), ev.Dur, 10)
	}
	b = strconv.AppendInt(append(b, `,"pid":`...), int64(ev.Pid), 10)
	b = strconv.AppendInt(append(b, `,"tid":`...), ev.Tid, 10)
	if ev.S != "" {
		b = appendString(append(b, `,"s":`...), ev.S)
	}
	if ev.Cat != "" {
		b = appendString(append(b, `,"cat":`...), ev.Cat)
	}
	t.write(append(appendObject(b, `,"args":`, ev.Args), '}'))
}

// Close ends the document, with the given key/value pairs as its
// otherData object when there are any, and returns the first write
// error.
func (t *TraceWriter) Close(otherData ...[2]string) error {
	t.write(append(appendObject(append(t.buf, "\n]"...), `,"otherData":`, otherData), "}\n"...))
	return t.err
}

func (t *TraceWriter) write(b []byte) {
	t.buf = b[:0]
	if t.err == nil {
		_, t.err = t.w.Write(b)
	}
}

// appendObject appends key and the pairs as a JSON object of strings,
// or nothing when there are no pairs.
func appendObject(b []byte, key string, pairs [][2]string) []byte {
	if len(pairs) == 0 {
		return b
	}
	b = append(b, key...)
	sep := byte('{')
	for _, kv := range pairs {
		b = appendString(append(appendString(append(b, sep), kv[0]), ':'), kv[1])
		sep = ','
	}
	return append(b, '}')
}

// appendString appends s as a JSON string escaped exactly as
// encoding/json escapes it (so "I->S" becomes "I-\u003eS"): plain
// ASCII is copied, anything else goes through json.Marshal, which
// cannot fail on a string.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s)
			return append(b, q...)
		}
	}
	return append(append(append(b, '"'), s...), '"')
}

// chromeFor translates one ring event: an instant on the component's
// thread carrying the line address, except that a latency sample
// renders as a duration slice ending at its completion tick.
func (o *Observer) chromeFor(ev Event) TraceEvent {
	te := TraceEvent{
		Ph: "i", S: "t", Ts: uint64(ev.When), Tid: int64(ev.Comp),
		Args: [][2]string{{"addr", fmt.Sprintf("0x%x", uint64(ev.Addr))}},
	}
	switch ev.Kind {
	case EvMsg:
		te.Name, te.Cat = "msg "+MsgClass(ev.Arg).String(), "msg"
		te.Args = append(te.Args, [2]string{"to", o.CompName(CompID(ev.A))})
	case EvState:
		te.Name, te.Cat = o.stateStr(ev.Arg>>4)+"->"+o.stateStr(ev.Arg&0xf), "state"
	case EvPush:
		te.Name, te.Cat = "push", "push"
		te.Args = append(te.Args, [2]string{"to", o.CompName(CompID(ev.A))})
	case EvAccess:
		verdict := "miss"
		if ev.Arg&1 != 0 {
			verdict = "hit"
		}
		te.Name, te.Cat = fmt.Sprintf("L%d %s", ev.Arg>>1, verdict), "cache"
	case EvLat:
		te.Name, te.Cat = HistID(ev.Arg).String(), "lat"
		te.Ph, te.S, te.Dur = "X", "", ev.A
		if ev.A <= te.Ts {
			te.Ts -= ev.A
		}
	default:
		te.Name, te.Args = fmt.Sprintf("event(%d)", ev.Kind), nil
	}
	return te
}

// WriteTrace streams the recorded events as Chrome trace-event JSON:
// one "M" thread_name metadata record per registered component, then
// the events in chronological order, and the overwrite count as
// otherData when the ring wrapped. Nil-safe: writes an empty trace.
func (o *Observer) WriteTrace(w io.Writer) error {
	tw := NewTraceWriter(w)
	if o == nil {
		return tw.Close()
	}
	for id, name := range o.comps {
		tw.Event(TraceEvent{Name: "thread_name", Ph: "M", Tid: int64(id), Args: [][2]string{{"name", name}}})
	}
	for _, ev := range o.Events() {
		tw.Event(o.chromeFor(ev))
	}
	if d := o.Dropped(); d > 0 {
		return tw.Close([2]string{"droppedEvents", strconv.FormatUint(d, 10)})
	}
	return tw.Close()
}

// WriteTimeline dumps the per-line coherence-state history recovered
// from the EvState events: one section per line address (ascending),
// with chronological "t=<tick> <component> <from>-><to>" rows. It is
// the grep-friendly companion to the Chrome trace. Nil-safe.
func (o *Observer) WriteTimeline(w io.Writer) error {
	if _, err := io.WriteString(w, "# coherence state timeline (per line address)\n"); err != nil {
		return err
	}
	if o == nil {
		return nil
	}
	byLine := make(map[memsys.Addr][]Event)
	for _, ev := range o.Events() {
		if ev.Kind != EvState {
			continue
		}
		byLine[ev.Addr] = append(byLine[ev.Addr], ev)
	}
	lines := make([]memsys.Addr, 0, len(byLine))
	//dstore:allow-maprange keys are sorted before any output is written
	for a := range byLine {
		lines = append(lines, a)
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	for _, a := range lines {
		if _, err := fmt.Fprintf(w, "line 0x%08x\n", uint64(a)); err != nil {
			return err
		}
		for _, ev := range byLine[a] {
			from, to := ev.Arg>>4, ev.Arg&0xf
			if _, err := fmt.Fprintf(w, "  t=%-10d %-12s %s->%s\n",
				uint64(ev.When), o.CompName(ev.Comp), o.stateStr(from), o.stateStr(to)); err != nil {
				return err
			}
		}
	}
	return nil
}

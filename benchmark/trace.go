package main

import (
	"encoding/json"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// tracer records spans around the benchmark's own calls into each layer.
// A nil *tracer records nothing, so an untraced round pays one nil check
// per call site.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

// span is one call into a layer. Lane is the client or slot that made
// it (the Chrome thread); nesting is recovered from containment on a
// lane, so recording needs no parent bookkeeping.
type span struct {
	Name  string
	Lane  int
	Start time.Duration // since the tracer's epoch
	Dur   time.Duration
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// now starts a span: pass the result to add when the call returns.
func (t *tracer) now() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// add closes the span started at start.
func (t *tracer) add(name string, lane int, start time.Time) {
	if t == nil {
		return
	}
	end := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Lane: lane, Start: start.Sub(t.epoch), Dur: end.Sub(start)})
	t.mu.Unlock()
}

// spanTotal aggregates every span of one name.
type spanTotal struct {
	Count int     `json:"count"`
	Total float64 `json:"total_s"`
	// Self is Total minus the time the spans' children cover.
	Self float64 `json:"self_s"`
}

// nested returns the spans ordered for nesting (by lane, then start,
// longest first) and, for each, the index of its innermost enclosing
// span on the same lane (-1 at top level).
func (t *tracer) nested() ([]span, []int) {
	t.mu.Lock()
	s := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(s, func(i, j int) bool {
		if s[i].Lane != s[j].Lane {
			return s[i].Lane < s[j].Lane
		}
		if s[i].Start != s[j].Start {
			return s[i].Start < s[j].Start
		}
		return s[i].Dur > s[j].Dur
	})
	parent := make([]int, len(s))
	var stack []int
	for i, sp := range s {
		for len(stack) > 0 {
			top := s[stack[len(stack)-1]]
			if top.Lane == sp.Lane && sp.Start+sp.Dur <= top.Start+top.Dur {
				break
			}
			stack = stack[:len(stack)-1]
		}
		parent[i] = -1
		if len(stack) > 0 {
			parent[i] = stack[len(stack)-1]
		}
		stack = append(stack, i)
	}
	return s, parent
}

// totals sums span time and self time by span name.
func (t *tracer) totals() map[string]spanTotal {
	s, parent := t.nested()
	childTime := make([]time.Duration, len(s))
	for i, p := range parent {
		if p >= 0 {
			childTime[p] += s[i].Dur
		}
	}
	out := make(map[string]spanTotal)
	for i, sp := range s {
		st := out[sp.Name]
		st.Count++
		st.Total += sp.Dur.Seconds()
		st.Self += (sp.Dur - childTime[i]).Seconds()
		out[sp.Name] = st
	}
	return out
}

// unattributed is the share of [start, start+wall) that no top-level
// span covers: time the round spent outside every layer call it traced.
// Near zero means the layer spans add up to the round.
func (t *tracer) unattributed(start time.Time, wall time.Duration) float64 {
	if wall <= 0 {
		return 0
	}
	lo, hi := start.Sub(t.epoch), start.Sub(t.epoch)+wall
	s, parent := t.nested()
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for i, sp := range s {
		if parent[i] >= 0 {
			continue
		}
		a, b := max(sp.Start, lo), min(sp.Start+sp.Dur, hi)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, end time.Duration
	end = lo
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		covered += v.b - max(v.a, end)
		end = v.b
	}
	return 1 - float64(covered)/float64(wall)
}

// chromeEvent is one Chrome trace-event record (Perfetto loads these).
type chromeEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
}

// writeChrome writes the spans as a Chrome trace-event document: one
// complete ("X") event per span, microsecond timestamps, the layer (the
// span name up to its first dot) as the category.
func (t *tracer) writeChrome(w io.Writer, workload string) error {
	s, _ := t.nested()
	doc := struct {
		TraceEvents     []chromeEvent     `json:"traceEvents"`
		DisplayTimeUnit string            `json:"displayTimeUnit"`
		OtherData       map[string]string `json:"otherData"`
	}{
		TraceEvents:     make([]chromeEvent, 0, len(s)),
		DisplayTimeUnit: "ms",
		OtherData:       map[string]string{"workload": workload},
	}
	for _, sp := range s {
		cat, _, _ := strings.Cut(sp.Name, ".")
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: sp.Name, Cat: cat, Ph: "X",
			Ts:  float64(sp.Start) / float64(time.Microsecond),
			Dur: float64(sp.Dur) / float64(time.Microsecond),
			Pid: 1, Tid: sp.Lane,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

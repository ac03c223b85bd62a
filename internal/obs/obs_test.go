package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"dstore/internal/memsys"
	"dstore/internal/sim"
)

// TestNilObserverSafe proves every recording and export method is a
// no-op on a nil *Observer — the zero-overhead-when-disabled contract
// at the API level.
func TestNilObserverSafe(t *testing.T) {
	var o *Observer
	o.Msg(1, 0, MsgGETS, 0x100, 1)
	o.StateChange(1, 0, 0x100, 0, 3)
	o.Push(1, 0, 0x100, 1)
	o.CacheAccess(1, 0, 0x100, 2, true, true)
	o.PushInstalled(1, 0x100)
	o.Latency(1, 0, HistGPULoadLat, 0x100, 42)
	o.Tick(0, 100)
	o.FinishRun(100)
	o.SetStateNamer(nil)
	if got := o.Component("x"); got != 0 {
		t.Errorf("nil Component = %d, want 0", got)
	}
	if o.Events() != nil || o.Samples() != nil || o.Hist(HistGPULoadLat) != nil {
		t.Error("nil observer leaked state")
	}
	var buf bytes.Buffer
	if err := o.WriteTrace(&buf); err != nil {
		t.Fatalf("nil WriteTrace: %v", err)
	}
	var parsed map[string]any
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("nil trace not valid JSON: %v", err)
	}
	if err := o.WriteTimeline(&buf); err != nil {
		t.Fatalf("nil WriteTimeline: %v", err)
	}
	if err := o.WriteSeriesCSV(&buf); err != nil {
		t.Fatalf("nil WriteSeriesCSV: %v", err)
	}
	if err := o.WriteSeriesJSON(&buf); err != nil {
		t.Fatalf("nil WriteSeriesJSON: %v", err)
	}
}

// TestRingWrap proves the tracer keeps exactly the most recent TraceCap
// events, in chronological order, and counts the overwritten ones.
func TestRingWrap(t *testing.T) {
	o := New(Options{Trace: true, TraceCap: 4})
	c := o.Component("c")
	for i := 0; i < 10; i++ {
		o.Msg(sim.Tick(i), c, MsgGETS, memsys.Addr(i), c)
	}
	evs := o.Events()
	if len(evs) != 4 {
		t.Fatalf("len(Events) = %d, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := sim.Tick(6 + i); ev.When != want {
			t.Errorf("event %d at tick %d, want %d", i, ev.When, want)
		}
	}
	if o.Dropped() != 6 {
		t.Errorf("Dropped = %d, want 6", o.Dropped())
	}
}

// TestRecordingAllocsPinned pins the recording hot path at zero
// allocations: every recording method on a nil *Observer (observation
// off), and each trace record into a full ring.
func TestRecordingAllocsPinned(t *testing.T) {
	var off *Observer
	full := New(Options{Trace: true, TraceCap: 4})
	c := full.Component("c")
	for i := 0; i < 8; i++ {
		full.Push(sim.Tick(i), c, 0x40, c)
	}
	for _, tc := range []struct {
		name string
		f    func()
	}{
		{"nil Msg", func() { off.Msg(1, 0, MsgGETS, 0x100, 1) }},
		{"nil StateChange", func() { off.StateChange(1, 0, 0x100, 0, 3) }},
		{"nil Push", func() { off.Push(1, 0, 0x100, 1) }},
		{"nil CacheAccess", func() { off.CacheAccess(1, 0, 0x100, 2, true, true) }},
		{"nil PushInstalled", func() { off.PushInstalled(1, 0x100) }},
		{"nil Latency", func() { off.Latency(1, 0, HistGPULoadLat, 0x100, 42) }},
		{"nil Tick", func() { off.Tick(0, 100) }},
		{"nil FinishRun", func() { off.FinishRun(100) }},
		{"full Msg", func() { full.Msg(9, c, MsgGETS, 0x100, c) }},
		{"full StateChange", func() { full.StateChange(9, c, 0x100, 0, 3) }},
		{"full Push", func() { full.Push(9, c, 0x100, c) }},
		{"full CacheAccess", func() { full.CacheAccess(9, c, 0x100, 2, true, true) }},
		{"full Latency", func() { full.Latency(9, c, HistGPULoadLat, 0x100, 42) }},
	} {
		if a := testing.AllocsPerRun(100, tc.f); a != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, a)
		}
	}
	if full.Dropped() == 0 {
		t.Fatalf("ring never filled")
	}
}

// TestHistogramBuckets pins the log2 bucket boundaries: 0 alone, then
// [2^(i-1), 2^i).
func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram("t")
	for _, v := range []uint64{0, 1, 2, 3, 4, 7, 8, 1000} {
		h.Observe(v)
	}
	want := []Bucket{
		{Lo: 0, Hi: 0, Count: 1},
		{Lo: 1, Hi: 1, Count: 1},
		{Lo: 2, Hi: 3, Count: 2},
		{Lo: 4, Hi: 7, Count: 2},
		{Lo: 8, Hi: 15, Count: 1},
		{Lo: 512, Hi: 1023, Count: 1},
	}
	got := h.Buckets()
	if len(got) != len(want) {
		t.Fatalf("Buckets = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if h.Count() != 8 || h.Sum() != 1025 || h.Min() != 0 || h.Max() != 1000 {
		t.Errorf("count=%d sum=%d min=%d max=%d", h.Count(), h.Sum(), h.Min(), h.Max())
	}
	if math.Abs(h.Mean()-1025.0/8) > 1e-9 {
		t.Errorf("Mean = %v", h.Mean())
	}
	top := NewHistogram("top")
	top.Observe(math.MaxUint64)
	if b := top.Buckets(); len(b) != 1 || b[0].Lo != 1<<63 || b[0].Hi != math.MaxUint64 {
		t.Errorf("top bucket = %+v", b)
	}
}

// TestHistogramMerge proves Merge is the sum of the two distributions.
func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram("a"), NewHistogram("b")
	a.Observe(5)
	a.Observe(100)
	b.Observe(3)
	b.Observe(2000)
	a.Merge(b)
	if a.Count() != 4 || a.Sum() != 2108 || a.Min() != 3 || a.Max() != 2000 {
		t.Errorf("merged count=%d sum=%d min=%d max=%d", a.Count(), a.Sum(), a.Min(), a.Max())
	}
	a.Merge(nil)
	a.Merge(NewHistogram("empty"))
	if a.Count() != 4 || a.Min() != 3 {
		t.Errorf("merge with empty changed state: count=%d min=%d", a.Count(), a.Min())
	}
}

// record a small, fully mixed event stream against o.
func recordFixture(o *Observer) {
	cpu := o.Component("cpu")
	gpu := o.Component("gpu.l2.s0")
	mem := o.Component("mem")
	o.SetStateNamer(func(s uint8) string { return [5]string{"I", "S", "O", "M", "MM"}[s] })
	o.Msg(10, cpu, MsgGETX, 0x1000, mem)
	o.StateChange(25, cpu, 0x1000, 0, 4)
	o.Push(30, cpu, 0x1000, gpu)
	o.CacheAccess(40, gpu, 0x1000, 2, false, true)
	o.CacheAccess(45, gpu, 0x1040, 2, true, true)
	o.Latency(60, gpu, HistGPULoadLat, 0x1000, 20)
	o.StateChange(70, gpu, 0x1080, 1, 0)
}

// TestChromeTraceRoundTrip proves the Chrome trace output parses with
// encoding/json, carries one thread_name metadata record per
// component, and is byte-identical across observers fed the same
// stream.
func TestChromeTraceRoundTrip(t *testing.T) {
	var bufs [2]bytes.Buffer
	for i := range bufs {
		o := New(Options{Trace: true, Hist: true, TraceCap: 64})
		recordFixture(o)
		if err := o.WriteTrace(&bufs[i]); err != nil {
			t.Fatalf("WriteTrace: %v", err)
		}
	}
	if !bytes.Equal(bufs[0].Bytes(), bufs[1].Bytes()) {
		t.Error("identical streams produced different trace bytes")
	}
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(bufs[0].Bytes(), &parsed); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	meta, instants, slices := 0, 0, 0
	for _, ev := range parsed.TraceEvents {
		switch ev["ph"] {
		case "M":
			meta++
		case "i":
			instants++
		case "X":
			slices++
		}
	}
	if meta != 3 {
		t.Errorf("thread_name records = %d, want 3", meta)
	}
	if instants != 6 || slices != 1 {
		t.Errorf("instants=%d slices=%d, want 6 and 1", instants, slices)
	}
}

// TestTimeline proves the per-line dump groups by address in ascending
// order with protocol state names.
func TestTimeline(t *testing.T) {
	o := New(Options{Trace: true, TraceCap: 64})
	recordFixture(o)
	var buf bytes.Buffer
	if err := o.WriteTimeline(&buf); err != nil {
		t.Fatalf("WriteTimeline: %v", err)
	}
	out := buf.String()
	i1 := strings.Index(out, "line 0x00001000")
	i2 := strings.Index(out, "line 0x00001080")
	if i1 < 0 || i2 < 0 || i2 < i1 {
		t.Fatalf("timeline sections missing or misordered:\n%s", out)
	}
	if !strings.Contains(out, "I->MM") || !strings.Contains(out, "S->I") {
		t.Errorf("timeline missing transitions:\n%s", out)
	}
}

// TestPushToFirstUse proves the distance histogram pairs PushInstalled
// with the next demand access and observes each push once.
func TestPushToFirstUse(t *testing.T) {
	o := New(Options{Hist: true})
	gpu := o.Component("gpu.l2.s0")
	o.PushInstalled(100, 0x2000)
	o.CacheAccess(175, gpu, 0x2010, 2, true, true) // same line, offset addr
	o.CacheAccess(300, gpu, 0x2000, 2, true, true) // second use: not counted
	h := o.Hist(HistPushToUse)
	if h.Count() != 1 || h.Sum() != 75 {
		t.Errorf("push-to-use count=%d sum=%d, want 1 and 75", h.Count(), h.Sum())
	}
}

// TestSamplerWindows proves epoch windows close on clock advances, a
// jump across several boundaries emits the empty windows in between,
// and FinishRun seals the final partial window exactly once.
func TestSamplerWindows(t *testing.T) {
	o := New(Options{TimeSeries: true, Epoch: 100})
	c := o.Component("gpu.l2.s0")
	occ := uint64(7)
	o.RegisterGauge("wbbuf_occupancy", func() uint64 { return occ })

	o.CacheAccess(10, c, 0x100, 2, false, true)
	o.Msg(20, c, MsgGETS, 0x100, c)
	o.Tick(20, 150) // crosses 100
	occ = 3
	o.CacheAccess(150, c, 0x140, 2, true, true)
	o.Tick(150, 420) // crosses 200, 300, 400
	o.FinishRun(450)
	o.FinishRun(450) // idempotent

	ss := o.Samples()
	if len(ss) != 5 {
		t.Fatalf("samples = %d, want 5", len(ss))
	}
	w0 := ss[0]
	if w0.Start != 0 || w0.End != 100 || w0.GPUL2Accesses != 1 || w0.GPUL2Misses != 1 || w0.Msgs[MsgGETS] != 1 {
		t.Errorf("window 0 = %+v", w0)
	}
	if w0.Gauges[0] != 7 {
		t.Errorf("window 0 gauge = %d, want 7", w0.Gauges[0])
	}
	w1 := ss[1]
	if w1.Start != 100 || w1.End != 200 || w1.GPUL2Accesses != 1 || w1.GPUL2Misses != 0 {
		t.Errorf("window 1 = %+v", w1)
	}
	if w1.Gauges[0] != 3 {
		t.Errorf("window 1 gauge = %d, want 3", w1.Gauges[0])
	}
	for i, s := range ss[2:4] {
		if s.GPUL2Accesses != 0 {
			t.Errorf("empty window %d has accesses", i+2)
		}
	}
	last := ss[4]
	if last.Start != 400 || last.End != 450 {
		t.Errorf("final window = %+v", last)
	}

	var csv bytes.Buffer
	if err := o.WriteSeriesCSV(&csv); err != nil {
		t.Fatalf("WriteSeriesCSV: %v", err)
	}
	rows := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(rows) != 6 {
		t.Fatalf("csv rows = %d, want header + 5", len(rows))
	}
	if !strings.HasPrefix(rows[0], "epoch,start,end,gpu_l2_accesses,gpu_l2_misses,miss_rate,msg_GETS") ||
		!strings.HasSuffix(rows[0], ",wbbuf_occupancy") {
		t.Errorf("csv header = %q", rows[0])
	}
	var js bytes.Buffer
	if err := o.WriteSeriesJSON(&js); err != nil {
		t.Fatalf("WriteSeriesJSON: %v", err)
	}
	var arr []map[string]any
	if err := json.Unmarshal(js.Bytes(), &arr); err != nil {
		t.Fatalf("series JSON invalid: %v", err)
	}
	if len(arr) != 5 {
		t.Errorf("series JSON rows = %d, want 5", len(arr))
	}
}

// TestComponentIDsStable proves registration order fixes IDs and
// re-registration is idempotent.
func TestComponentIDsStable(t *testing.T) {
	o := New(Options{})
	a := o.Component("a")
	b := o.Component("b")
	if a != 0 || b != 1 || o.Component("a") != a {
		t.Errorf("ids: a=%d b=%d again=%d", a, b, o.Component("a"))
	}
	if o.CompName(a) != "a" || o.CompName(99) != "comp99" {
		t.Errorf("CompName: %q %q", o.CompName(a), o.CompName(99))
	}
}

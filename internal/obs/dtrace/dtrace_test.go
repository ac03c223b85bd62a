package dtrace

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"dstore/internal/obs"
)

var update = flag.Bool("update", false, "rewrite testdata goldens from current output")

// newRecorder returns a recorder whose ring holds only capacity spans,
// for tests that drive it past full.
func newRecorder(capacity int, opt Options) *Recorder {
	r := New(opt)
	r.ring = obs.NewRing[Span](capacity)
	return r
}

// stitch renders Stitch's document into memory.
func stitch(t *testing.T, trace uint64, dumps []Dump) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := Stitch(&b, trace, dumps); err != nil {
		t.Fatalf("Stitch: %v", err)
	}
	return b.Bytes()
}

// TestSpanSize pins the packed record at 32 bytes — the same budget
// the single-process observer proved. Growing it silently doubles the
// ring's memory.
func TestSpanSize(t *testing.T) {
	if got := unsafe.Sizeof(Span{}); got != 32 {
		t.Fatalf("Span size = %d bytes, want 32", got)
	}
}

func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	sp := r.Begin(1, SpanSimulate, 0, 0)
	sp.End(FlagErr)
	r.Record(1, SpanVerify, 0, 0, 0, 0, 0)
	if r.Spans(0) != nil {
		t.Fatalf("nil recorder returned spans")
	}
	if rec, drop := r.Counts(); rec != 0 || drop != 0 {
		t.Fatalf("nil recorder counts = %d/%d", rec, drop)
	}
	if r.Open() != 0 || r.Now() != 0 || r.Process() != "" {
		t.Fatalf("nil recorder leaked state")
	}
}

func TestZeroTraceRecordsNothing(t *testing.T) {
	r := New(Options{})
	r.Begin(0, SpanSimulate, 0, 0).End(0)
	r.Record(0, SpanVerify, 0, 0, 1, 2, 0)
	if rec, _ := r.Counts(); rec != 0 {
		t.Fatalf("zero trace recorded %d spans", rec)
	}
	if r.Open() != 0 {
		t.Fatalf("zero-trace Begin left open count %d", r.Open())
	}
}

func TestBeginEndAndOpenInvariant(t *testing.T) {
	var now uint64
	r := New(Options{Clock: func() uint64 { now += 10; return now }, Process: "w"})
	sp := r.Begin(7, SpanSimulate, 3, 2)
	if r.Open() != 1 {
		t.Fatalf("open = %d, want 1", r.Open())
	}
	sp.End(FlagHit)
	if r.Open() != 0 {
		t.Fatalf("open = %d after End, want 0", r.Open())
	}
	spans := r.Spans(7)
	if len(spans) != 1 {
		t.Fatalf("got %d spans", len(spans))
	}
	want := Span{Trace: 7, Start: 10, Dur: 10, Job: 3, Kind: SpanSimulate, Flags: FlagHit, Arg: 2}
	if spans[0] != want {
		t.Fatalf("span = %+v, want %+v", spans[0], want)
	}
}

func TestRingOverwritesOldest(t *testing.T) {
	r := newRecorder(4, Options{})
	for i := uint16(0); i < 6; i++ {
		r.Record(1, SpanDispatch, uint32(i), i, uint64(i), 1, 0)
	}
	rec, drop := r.Counts()
	if rec != 6 || drop != 2 {
		t.Fatalf("counts = %d recorded / %d dropped, want 6/2", rec, drop)
	}
	spans := r.Spans(1)
	if len(spans) != 4 {
		t.Fatalf("retained %d spans, want 4", len(spans))
	}
	if spans[0].Job != 2 {
		t.Fatalf("oldest retained job = %d, want 2 (jobs 0,1 overwritten)", spans[0].Job)
	}
}

// TestSpansOrderIndependent is the determinism core: the same span
// multiset recorded in different orders exports identically.
func TestSpansOrderIndependent(t *testing.T) {
	mk := func(order []int) []Span {
		r := New(Options{})
		all := []Span{
			{Trace: 5, Start: 30, Dur: 1, Job: 1, Kind: SpanSimulate},
			{Trace: 5, Start: 10, Dur: 2, Job: 0, Kind: SpanDispatch, Arg: 1},
			{Trace: 5, Start: 20, Dur: 3, Job: 0, Kind: SpanDispatch, Arg: 2},
			{Trace: 9, Start: 5, Dur: 4, Job: 0, Kind: SpanVerify},
		}
		for _, i := range order {
			s := all[i]
			r.Record(s.Trace, s.Kind, s.Job, s.Arg, s.Start, s.Dur, s.Flags)
		}
		return r.Spans(5)
	}
	a := mk([]int{0, 1, 2, 3})
	b := mk([]int{3, 2, 1, 0})
	if len(a) != 3 {
		t.Fatalf("trace filter kept %d spans, want 3", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("order-dependent export: %+v vs %+v", a[i], b[i])
		}
	}
	if a[0].Job != 0 || a[0].Arg != 1 {
		t.Fatalf("sort order wrong: first span %+v", a[0])
	}
}

func TestRecorderConcurrencySafe(t *testing.T) {
	r := newRecorder(64, Options{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				sp := r.Begin(1, SpanSimulate, uint32(g), 0)
				sp.End(0)
			}
		}(g)
	}
	wg.Wait()
	if rec, _ := r.Counts(); rec != 800 {
		t.Fatalf("recorded %d, want 800", rec)
	}
	if r.Open() != 0 {
		t.Fatalf("open = %d, want 0", r.Open())
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	h := make(http.Header)
	SetHeaders(h, 0xdeadbeef, 42)
	if h.Get(TraceHeader) != "00000000deadbeef" {
		t.Fatalf("trace header = %q", h.Get(TraceHeader))
	}
	trace, job, ok := FromHeaders(h)
	if !ok || trace != 0xdeadbeef || job != 42 {
		t.Fatalf("round trip = (%x, %d, %v)", trace, job, ok)
	}

	SetHeaders(make(http.Header), 0, 1) // zero trace: no-op
	if _, _, ok := FromHeaders(make(http.Header)); ok {
		t.Fatalf("empty headers parsed as traced")
	}
	bad := make(http.Header)
	bad.Set(TraceHeader, "not-hex")
	if _, _, ok := FromHeaders(bad); ok {
		t.Fatalf("malformed trace header parsed as traced")
	}
	noJob := make(http.Header)
	noJob.Set(TraceHeader, "10")
	trace, job, ok = FromHeaders(noJob)
	if !ok || trace != 0x10 || job != JobNone {
		t.Fatalf("missing span header = (%x, %d, %v), want JobNone", trace, job, ok)
	}
}

func TestTraceIDFromHex(t *testing.T) {
	if got := TraceIDFromHex("00000000deadbeefcafe"); got != 0xdeadbeef {
		t.Fatalf("TraceIDFromHex = %x", got)
	}
	if got := TraceIDFromHex("short"); got != 0 {
		t.Fatalf("short id = %x, want 0", got)
	}
	if got := TraceIDFromHex("zzzzzzzzzzzzzzzz"); got != 0 {
		t.Fatalf("non-hex id = %x, want 0", got)
	}
}

func TestKindNames(t *testing.T) {
	for k := SpanKind(0); k < NumSpanKinds; k++ {
		name := k.Name()
		if name == "" || name == "unknown" {
			t.Fatalf("kind %d has no name", k)
		}
		back, ok := KindByName(name)
		if !ok || back != k {
			t.Fatalf("KindByName(%q) = (%v, %v), want %v", name, back, ok, k)
		}
	}
	if SpanKind(200).Name() != "unknown" {
		t.Fatalf("out-of-range kind name = %q", SpanKind(200).Name())
	}
}

// TestStitchDeterministic re-parses stitched output through
// encoding/json (the Perfetto parse) and pins byte-identity across
// dump orderings.
func TestStitchDeterministic(t *testing.T) {
	dumps := stitchFixture()
	out1 := stitch(t, 3, dumps)
	out2 := stitch(t, 3, []Dump{dumps[2], dumps[0], dumps[1]})
	if !bytes.Equal(out1, out2) {
		t.Fatalf("stitch depends on dump order:\n%s\nvs\n%s", out1, out2)
	}

	var doc struct {
		TraceEvents []map[string]any  `json:"traceEvents"`
		OtherData   map[string]string `json:"otherData"`
	}
	if err := json.Unmarshal(out1, &doc); err != nil {
		t.Fatalf("stitched output is not valid JSON: %v", err)
	}
	if doc.OtherData["trace"] != FormatTraceID(3) {
		t.Fatalf("otherData trace = %q", doc.OtherData["trace"])
	}
	var procs, spans int
	names := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "M":
			procs++
			args := ev["args"].(map[string]any)
			names[args["name"].(string)] = true
		case "X":
			spans++
		}
	}
	if procs != 3 || spans != 4 {
		t.Fatalf("stitched %d process rows / %d spans, want 3/4", procs, spans)
	}
	for _, want := range []string{"coordinator", "worker-0", "worker-1"} {
		if !names[want] {
			t.Fatalf("missing process row %q in %v", want, names)
		}
	}
	// JobNone renders as tid -1.
	if !strings.Contains(string(out1), `"tid":-1`) {
		t.Fatalf("expand span did not render tid -1:\n%s", out1)
	}
}

// stitchFixture is three processes' dumps of trace 3: two workers and
// a coordinator, one span of them not tied to a job.
func stitchFixture() []Dump {
	w0 := New(Options{Process: "worker-0"})
	w0.Record(3, SpanSimulate, 0, 0, 10, 5, 0)
	w0.Record(3, SpanCacheLookup, 0, 0, 8, 1, FlagHit)
	w1 := New(Options{Process: "worker-1"})
	w1.Record(3, SpanSimulate, 1, 0, 12, 6, FlagErr)
	co := New(Options{Process: "coordinator"})
	co.Record(3, SpanExpand, JobNone, 2, 1, 2, 0)
	return []Dump{w0.DumpTrace(3), w1.DumpTrace(3), co.DumpTrace(3)}
}

// chromeDoc is a decoded Chrome trace: the fields Perfetto reads from
// each event, plus otherData.
type chromeDoc struct {
	TraceEvents []struct {
		Name string            `json:"name"`
		Cat  string            `json:"cat"`
		Ph   string            `json:"ph"`
		Ts   uint64            `json:"ts"`
		Dur  uint64            `json:"dur"`
		Pid  int               `json:"pid"`
		Tid  int64             `json:"tid"`
		Args map[string]string `json:"args"`
	} `json:"traceEvents"`
	OtherData map[string]string `json:"otherData"`
}

// requireXDur fails unless every complete ("X") event in a Chrome trace
// carries an explicit dur, zero-length spans included.
func requireXDur(t *testing.T, doc []byte) {
	t.Helper()
	var raw struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(doc, &raw); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	for _, ev := range raw.TraceEvents {
		if _, ok := ev["dur"]; ev["ph"] == "X" && !ok {
			t.Fatalf("complete event without dur: %v", ev)
		}
	}
}

// TestStitchGolden pins the stitched document for stitchFixture: first
// as decoded events and otherData, then byte for byte.
func TestStitchGolden(t *testing.T) {
	got := stitch(t, 3, stitchFixture())
	path := filepath.Join("testdata", "stitch.golden.json")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	var gotDoc, wantDoc chromeDoc
	if err := json.Unmarshal(got, &gotDoc); err != nil {
		t.Fatalf("stitched output is not valid JSON: %v", err)
	}
	if err := json.Unmarshal(want, &wantDoc); err != nil {
		t.Fatalf("golden is not valid JSON: %v", err)
	}
	if !reflect.DeepEqual(gotDoc, wantDoc) {
		t.Fatalf("stitched events differ from %s:\ngot  %+v\nwant %+v", path, gotDoc, wantDoc)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("stitched bytes differ from %s (same events):\ngot\n%s\nwant\n%s", path, got, want)
	}
	requireXDur(t, got)
}

// TestStitchZeroLengthSpansKeepDur proves zero-length spans (a cache
// lookup or snapshot probe under a coarse clock) still export an
// explicit "dur":0.
func TestStitchZeroLengthSpansKeepDur(t *testing.T) {
	r := New(Options{Clock: func() uint64 { return 7 }, Process: "w"})
	r.Begin(5, SpanCacheLookup, 0, 0).End(FlagHit)
	r.Begin(5, SpanSnapshot, 0, 0).End(0)
	out := stitch(t, 5, []Dump{r.DumpTrace(5)})
	if n := strings.Count(string(out), `"dur":0`); n < 2 {
		t.Fatalf("zero-length spans exported %d explicit durs, want 2:\n%s", n, out)
	}
	requireXDur(t, out)
}

// TestRecordingAllocsPinned pins span recording at zero allocations:
// on a nil recorder (tracing off) and into a full ring.
func TestRecordingAllocsPinned(t *testing.T) {
	var off *Recorder
	full := newRecorder(4, Options{})
	for i := 0; i < 8; i++ {
		full.Record(1, SpanDispatch, uint32(i), 0, uint64(i), 1, 0)
	}
	for _, tc := range []struct {
		name string
		f    func()
	}{
		{"nil Begin/End", func() { off.Begin(1, SpanSimulate, 0, 0).End(0) }},
		{"nil Record", func() { off.Record(1, SpanVerify, 0, 0, 1, 2, 0) }},
		{"full Begin/End", func() { full.Begin(1, SpanSimulate, 0, 0).End(0) }},
		{"full Record", func() { full.Record(1, SpanVerify, 0, 0, 1, 2, 0) }},
	} {
		if a := testing.AllocsPerRun(100, tc.f); a != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, a)
		}
	}
	if _, dropped := full.Counts(); dropped == 0 {
		t.Fatalf("ring never filled")
	}
}

func TestDumpSeqStable(t *testing.T) {
	r := New(Options{Process: "w"})
	r.Record(2, SpanSimulate, 1, 0, 10, 1, 0)
	r.Record(2, SpanSimulate, 0, 0, 5, 1, 0)
	d1 := r.DumpTrace(2)
	d2 := r.DumpTrace(2)
	if len(d1.Spans) != 2 || d1.Spans[0].Seq != 0 || d1.Spans[1].Seq != 1 {
		t.Fatalf("seq numbering wrong: %+v", d1.Spans)
	}
	if d1.Spans[0].Job != 0 {
		t.Fatalf("dump not in export order: %+v", d1.Spans)
	}
	for i := range d1.Spans {
		if d1.Spans[i] != d2.Spans[i] {
			t.Fatalf("re-dump renumbered spans: %+v vs %+v", d1.Spans[i], d2.Spans[i])
		}
	}
}

const workerScrapeA = `# TYPE jobs_total counter
jobs_total 3
# TYPE hit_rate gauge
hit_rate 0.25
# TYPE lat histogram
lat_bucket{le="15"} 2
lat_bucket{le="+Inf"} 3
lat_sum 40
lat_count 3
`

const workerScrapeB = `# TYPE jobs_total counter
jobs_total 5
# TYPE hit_rate gauge
hit_rate 0.75
# TYPE lat histogram
lat_bucket{le="15"} 1
lat_bucket{le="+Inf"} 1
lat_sum 9
lat_count 1
`

func TestParseProm(t *testing.T) {
	m, err := Parse(workerScrapeA)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if m.Types["lat"] != "histogram" || m.Types["jobs_total"] != "counter" {
		t.Fatalf("types = %v", m.Types)
	}
	if len(m.Samples) != 6 {
		t.Fatalf("parsed %d samples, want 6", len(m.Samples))
	}
	if m.Samples[2].Name != "lat_bucket" || m.Samples[2].Labels != `le="15"` || m.Samples[2].Value != 2 {
		t.Fatalf("bucket sample = %+v", m.Samples[2])
	}
	if _, err := Parse("jobs_total not-a-number\n"); err == nil {
		t.Fatalf("malformed value parsed silently")
	}
	if _, err := Parse("jobs_total{le=\"5\" 3\n"); err == nil {
		t.Fatalf("unbalanced braces parsed silently")
	}
}

func TestWriteFederated(t *testing.T) {
	ma, err := Parse(workerScrapeA)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := Parse(workerScrapeB)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	WriteFederated(&b, []WorkerMetrics{{Worker: "http://a", M: ma}, {Worker: "http://b", M: mb}})
	out := b.String()

	for _, want := range []string{
		`jobs_total{worker="http://a"} 3`,
		`jobs_total{worker="http://b"} 5`,
		"\njobs_total 8\n",
		"\nhit_rate 1\n", // 0.25 + 0.75
		`lat_bucket{le="15",worker="http://b"} 1`,
		"\nlat_bucket{le=\"15\"} 3\n",
		"\nlat_count 4\n",
		"\nlat_sum 49\n",
		"# TYPE lat histogram",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("federated output missing %q:\n%s", want, out)
		}
	}
	// Federated output must itself re-parse.
	fed, err := Parse(out)
	if err != nil {
		t.Fatalf("federated output does not re-parse: %v\n%s", err, out)
	}
	// And the unlabelled aggregates must equal per-worker sums.
	sums := map[string]float64{}
	var aggs []Sample
	for _, s := range fed.Samples {
		if strings.Contains(s.Labels, "worker=") {
			sums[s.Name+"\xff"+stripWorker(s.Labels)] += s.Value
		} else {
			aggs = append(aggs, s)
		}
	}
	if len(aggs) == 0 {
		t.Fatalf("no aggregate samples in federated output")
	}
	for _, a := range aggs {
		if got := sums[a.Name+"\xff"+a.Labels]; got != a.Value {
			t.Fatalf("aggregate %s{%s} = %v, per-worker sum = %v", a.Name, a.Labels, a.Value, got)
		}
	}
	// Deterministic rendering.
	var b2 bytes.Buffer
	WriteFederated(&b2, []WorkerMetrics{{Worker: "http://a", M: ma}, {Worker: "http://b", M: mb}})
	if out != b2.String() {
		t.Fatalf("federation output not deterministic")
	}
}

// stripWorker removes the worker label pair from a raw label body.
func stripWorker(labels string) string {
	var kept []string
	for _, pair := range strings.Split(labels, ",") {
		if !strings.HasPrefix(pair, "worker=") {
			kept = append(kept, pair)
		}
	}
	return strings.Join(kept, ",")
}

func TestFormatValueExactIntegers(t *testing.T) {
	if got := formatValue(1e7); got != "10000000" {
		t.Fatalf("formatValue(1e7) = %q", got)
	}
	if got := formatValue(0.125); got != "0.125" {
		t.Fatalf("formatValue(0.125) = %q", got)
	}
}

package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"dstore/internal/bench"
	"dstore/internal/serve"
)

var update = flag.Bool("update", false, "regenerate testdata/fig4.sha256 from bench.SweepWithConfigs")

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {1, 1}} {
		got, err := percentile(xs, c.p)
		if err != nil || got != c.want {
			t.Errorf("p%g of 1..100 = %g, %v; want %g", c.p, got, err, c.want)
		}
	}
	// p91 leaves 9 samples beyond it: refused. p90 leaves exactly 10.
	if _, err := percentile(xs, 91); err == nil {
		t.Error("p91 of 100 samples accepted with 9 beyond it")
	}
	if _, err := percentile(xs[:19], 50); err == nil {
		t.Error("p50 of 19 samples accepted with 9 beyond it")
	}
	if got, err := percentile(xs[:20], 50); err != nil || got != 90 {
		t.Errorf("p50 of 100..81 = %g, %v; want 90", got, err)
	}
}

func TestMixPlanDeterministicWithExactCounts(t *testing.T) {
	sz := mixSizes[fullScale]
	a, err := planMix(rand.New(rand.NewPCG(7, 0)), sz)
	if err != nil {
		t.Fatal(err)
	}
	b, err := planMix(rand.New(rand.NewPCG(7, 0)), sz)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed produced two different plans")
	}
	c, err := planMix(rand.New(rand.NewPCG(8, 0)), sz)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("two seeds produced the same plan")
	}

	counts := make(map[jobClass]int)
	finished := make(map[string]bool)
	for bi, batch := range a.batches {
		ids := make(map[string]bool)
		for _, j := range batch {
			counts[j.class]++
			if j.class == hitJob && !finished[j.id] {
				t.Errorf("batch %d hits job %.12s before it has finished", bi, j.id)
			}
			if j.class != hitJob && ids[j.id] {
				t.Errorf("batch %d runs job %.12s twice", bi, j.id)
			}
			ids[j.id] = true
		}
		for id := range ids {
			finished[id] = true
		}
	}
	disk := make(map[string]bool)
	for _, j := range a.disk {
		counts[j.class]++
		if !finished[j.id] || disk[j.id] {
			t.Errorf("disk hit %.12s repeats an unfinished or already repeated job", j.id)
		}
		disk[j.id] = true
	}
	want := map[jobClass]int{coldJob: 120, warmJob: 240, hitJob: 1500, diskJob: 200}
	if !reflect.DeepEqual(counts, want) {
		t.Errorf("class counts %v, want %v", counts, want)
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func TestMetricNames(t *testing.T) {
	seen := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(d.Name) || len(d.Name) > 64 {
			t.Errorf("metric name %q", d.Name)
		}
		if seen[d.Name] {
			t.Errorf("metric %q declared twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %q: better = %q", d.Name, d.Better)
		}
	}
	// Every per-layer metric must be some workload's to measure, or it
	// would only ever print as 0.
	owned := make(map[string]bool)
	for _, w := range workloadNames {
		for _, d := range ownedLayers(w) {
			owned[d.Name] = true
		}
	}
	for _, d := range perLayer {
		if !owned[d.Name] {
			t.Errorf("per-layer metric %q belongs to no workload", d.Name)
		}
	}
}

// mayBeZero are per-layer metrics that legitimately read 0 on a healthy
// run: failure and contention counts, and an exact span coverage.
var mayBeZero = map[string]bool{
	"serve.rejected": true, "serve.coalesced": true,
	"fleet.failovers": true, "fleet.retry_rounds": true,
	"trace.unattributed_frac": true,
}

// benchmarkJSON is the part of BENCHMARK.json the declarations mirror.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestBenchmarkJSONMatchesDeclarations(t *testing.T) {
	doc := readBenchmarkJSON(t)
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, declared %v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from the declarations")
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, declared %v", names, workloadNames)
	}
}

// TestEveryMetricEmitted runs every workload at tiny scale, untraced
// and traced, and checks that each passes its output checks and emits
// every end-to-end metric BENCHMARK.json names, that the traced run
// measures every per-layer metric its workload owns as a nonzero value
// (a percentile may instead be refused for too few samples), and that
// its Chrome trace re-parses.
func TestEveryMetricEmitted(t *testing.T) {
	doc := readBenchmarkJSON(t)
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/traced=%v", name, traced), func(t *testing.T) {
				out := t.TempDir()
				opt := runOpts{workload: name, seed: 3, seconds: time.Millisecond, traced: traced, outDir: out, scale: tinyScale}
				ready := false
				rep, err := runWorkload(opt, false, func() { ready = true })
				if err != nil {
					t.Fatal(err)
				}
				if !ready || rep.Attempted == 0 || !rep.correct() {
					t.Fatalf("ready=%v attempted=%d failed=%d errors=%v", ready, rep.Attempted, rep.Failed, rep.Errors)
				}
				if !traced {
					rep.Metrics["setup_s"] = 1 // measured by the parent process
					if err := rep.finite(doc.EndToEnd); err != nil {
						t.Error(err)
					}
					return
				}
				for _, d := range ownedLayers(name) {
					v, ok := rep.Metrics[d.Name]
					switch why, refused := rep.Unmeasured[d.Name]; {
					case refused && strings.Contains(why, "beyond it"):
					case refused:
						t.Errorf("%s not measured: %s", d.Name, why)
					case !ok:
						t.Errorf("%s missing", d.Name)
					case v == 0 && !mayBeZero[d.Name] && !strings.HasPrefix(d.Name, "host."):
						t.Errorf("%s = 0", d.Name)
					}
				}
				if err := rep.finite(ownedLayers(name)); err != nil {
					t.Error(err)
				}
				var shares float64
				for _, g := range hostGroups {
					shares += rep.Metrics["host."+g+"_frac"]
				}
				if shares < 0.99 || shares > 1.01 {
					t.Errorf("host shares sum to %g", shares)
				}
				b, err := os.ReadFile(filepath.Join(out, "trace", name+".trace.json"))
				if err != nil {
					t.Fatal(err)
				}
				var tr struct {
					TraceEvents []chromeEvent `json:"traceEvents"`
				}
				if err := json.Unmarshal(b, &tr); err != nil {
					t.Fatalf("trace does not re-parse: %v", err)
				}
				if len(tr.TraceEvents) == 0 {
					t.Error("trace has no events")
				}
			})
		}
	}
}

// TestFig4Digests checks the committed comparison digests against the
// repository's own sweep API on a subset (all of them with -update,
// which rewrites the file).
func TestFig4Digests(t *testing.T) {
	path := filepath.Join("testdata", "fig4.sha256")
	if *update {
		var jobs []bench.SweepJob
		for _, in := range []bench.Input{bench.Small, bench.Big} {
			jobs = append(jobs, bench.StandardJobs(in)...)
		}
		cs, err := bench.SweepWithConfigs(jobs, bench.SweepOptions{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, c := range cs {
			fmt.Fprintf(&b, "%s %s\n", comparisonKey(c.Code, c.In), comparisonDigest(t, c))
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	text, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := parseDigests(string(text))
	if err != nil {
		t.Fatal(err)
	}
	if n := 2 * len(bench.Codes()); len(want) != n {
		t.Fatalf("%d digests, want %d", len(want), n)
	}
	for _, code := range []string{"HT", "MT", "PT"} {
		c, err := bench.Compare(code, bench.Small)
		if err != nil {
			t.Fatal(err)
		}
		if got := comparisonDigest(t, c); got != want[comparisonKey(code, bench.Small)] {
			t.Errorf("%s small: digest %.12s, committed %.12s", code, got, want[comparisonKey(code, bench.Small)])
		}
	}
}

func comparisonDigest(t *testing.T, c bench.Comparison) string {
	t.Helper()
	body, err := serve.EncodeComparison(c)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:])
}

func TestTracerSelfTimeAndCoverage(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.epoch.Add(time.Duration(ms) * time.Millisecond) }
	tr.spans = []span{
		{Name: "outer", Lane: 0, Start: 0, Dur: 10 * time.Millisecond},
		{Name: "inner", Lane: 0, Start: 2 * time.Millisecond, Dur: 3 * time.Millisecond},
		{Name: "other", Lane: 1, Start: 8 * time.Millisecond, Dur: 4 * time.Millisecond},
	}
	tot := tr.totals()
	if got := tot["outer"].Self; got != 0.007 {
		t.Errorf("outer self time %g, want 0.007", got)
	}
	// [0,12) is covered, [12,16) is not.
	if got := tr.unattributed(at(0), 16*time.Millisecond); got != 0.25 {
		t.Errorf("unattributed %g, want 0.25", got)
	}
	var buf bytes.Buffer
	if err := tr.writeChrome(&buf, "test"); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Error("Chrome trace is not valid JSON")
	}
}

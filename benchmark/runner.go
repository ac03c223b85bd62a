package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"
)

// scale selects a workload's size. Tests run every workload at tinyScale;
// the command line always runs fullScale.
type scale int

const (
	fullScale scale = iota
	tinyScale
)

// env is what a workload sees: its seed, its size and a private scratch
// directory that is removed when the run ends.
type env struct {
	seed    uint64
	scale   scale
	workDir string
}

// rng returns the generator for one of a workload's independent seeded
// streams, so adding a stream never shifts another's draws.
func (e *env) rng(stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(e.seed, stream))
}

// workload is one named load. A run calls setup once, then round until
// the measuring window closes, then verify; a traced run adds one more
// round with a tracer and the CPU profiler on, and calls layers.
type workload interface {
	// setup prepares everything the first timed round needs.
	setup(e *env) error
	// round runs one complete unit of work and reports what it measured.
	// Only the round's own operations count towards its wall time; any
	// per-round preparation happens before stats.start.
	round(e *env, tr *tracer) (*roundStats, error)
	// verify runs the output checks that need work outside the timed
	// part, returning one message per failed check.
	verify(e *env) []string
	// layers records the workload's per-layer metrics into ls.
	layers(e *env, untraced []*roundStats, traced *roundStats, tr *tracer, ls *layerSet) error
	close()
}

// layerSet collects per-layer values, and for each metric a run could not
// measure, the reason.
type layerSet struct {
	m          map[string]float64
	unmeasured map[string]string
}

// pct sets name to the p-th percentile of xs, or records why it cannot.
func (ls *layerSet) pct(name string, xs []float64, p float64) {
	v, err := percentile(xs, p)
	if err != nil {
		ls.unmeasured[name] = err.Error()
		return
	}
	ls.m[name] = v
}

// take copies the named values from a round's layer map, refusing one the
// round never recorded.
func (ls *layerSet) take(layer map[string]float64, names ...string) error {
	for _, name := range names {
		v, ok := layer[name]
		if !ok {
			return fmt.Errorf("the round recorded no %s", name)
		}
		ls.m[name] = v
	}
	return nil
}

var workloadNames = []string{"fig4", "serve-mix", "fleet-sweep", "modelcheck"}

func newWorkload(name string) (workload, error) {
	switch name {
	case "fig4":
		return &fig4{}, nil
	case "serve-mix":
		return &serveMix{}, nil
	case "fleet-sweep":
		return &fleetSweep{}, nil
	case "modelcheck":
		return &modelCheck{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// runOpts configures one measured run of one workload.
type runOpts struct {
	workload string
	seed     uint64
	seconds  time.Duration
	traced   bool
	// outDir receives scratch directories and, for traced runs, the
	// Chrome trace, CPU profile and per-layer summary.
	outDir string
	scale  scale
}

// report is one run's outcome. A child process sends it to its parent
// as its last line of output.
type report struct {
	Workload  string             `json:"workload"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	// Unmeasured gives, by metric, why a traced run could not measure a
	// metric its workload owns; the parent prints such a metric as 0.
	Unmeasured map[string]string `json:"unmeasured,omitempty"`
}

func (r *report) correct() bool { return r.Failed == 0 && len(r.Errors) == 0 }

// maxUnattributed is the largest share of a traced round its layer spans
// may leave uncovered before the run is declared broken.
const maxUnattributed = 0.05

// runWorkload sets a workload up, calls ready, measures rounds until
// opt.seconds have passed (at least one round, and no round that would
// end past the window on the rounds' average length; a traced run keeps
// one round's length of the window for its traced round), checks its
// outputs and returns the end-to-end metrics, or for a traced run the
// per-layer metrics its workload owns. With setupOnly it returns right
// after ready.
func runWorkload(opt runOpts, setupOnly bool, ready func()) (*report, error) {
	w, err := newWorkload(opt.workload)
	if err != nil {
		return nil, err
	}
	workRoot := filepath.Join(opt.outDir, "work")
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		return nil, err
	}
	workDir, err := os.MkdirTemp(workRoot, opt.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(workDir)
	e := &env{seed: opt.seed, scale: opt.scale, workDir: workDir}

	if err := w.setup(e); err != nil {
		w.close()
		return nil, fmt.Errorf("%s set-up: %w", opt.workload, err)
	}
	defer w.close()
	ready()
	if setupOnly {
		return nil, nil
	}

	rep := &report{Workload: opt.workload, Metrics: make(map[string]float64)}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	reserve := 1
	if opt.traced {
		reserve = 2
	}
	begin := time.Now()
	var rounds []*roundStats
	for {
		rs, err := w.round(e, nil)
		if err != nil {
			return nil, fmt.Errorf("%s round %d: %w", opt.workload, len(rounds)+1, err)
		}
		rounds = append(rounds, rs)
		elapsed := time.Since(begin)
		if elapsed+time.Duration(reserve)*elapsed/time.Duration(len(rounds)) > opt.seconds {
			break
		}
	}
	runtime.ReadMemStats(&after)
	rss, err := peakRSS()
	if err != nil {
		return nil, err
	}

	// Medians over rounds, so that one round slowed by the host does not
	// move either metric.
	var walls, rates []float64
	for _, rs := range rounds {
		rep.tally(rs)
		walls = append(walls, rs.wall.Seconds())
		rates = append(rates, ratio(rs.items, rs.wall.Seconds()))
	}
	rep.Errors = append(rep.Errors, w.verify(e)...)
	n := float64(len(rounds))

	if !opt.traced {
		rep.Metrics["wall_s"] = median(walls)
		rep.Metrics["throughput_per_s"] = median(rates)
		rep.Metrics["alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20) / n
		return rep, nil
	}

	tr := newTracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	traced, err := w.round(e, tr)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, fmt.Errorf("%s traced round: %w", opt.workload, err)
	}
	rep.tally(traced)

	ls := &layerSet{m: make(map[string]float64), unmeasured: make(map[string]string)}
	if err := w.layers(e, rounds, traced, tr, ls); err != nil {
		return nil, fmt.Errorf("%s per-layer metrics: %w", opt.workload, err)
	}
	m := ls.m
	m["go.gc_cycles"] = float64(after.NumGC-before.NumGC) / n
	m["go.peak_rss_mb"] = rss / (1 << 20)
	m["trace.overhead_frac"] = traced.wall.Seconds()/median(walls) - 1
	un := tr.unattributed(traced.start, traced.wall)
	m["trace.unattributed_frac"] = un
	if un > maxUnattributed {
		rep.Errors = append(rep.Errors, fmt.Sprintf("layer spans leave %.1f%% of the traced round unattributed (limit %.0f%%)", 100*un, 100*maxUnattributed))
	}
	shares, err := hostShares(prof.Bytes())
	if err != nil {
		return nil, err
	}
	for g, f := range shares {
		m["host."+g+"_frac"] = f
	}
	if err := checkOwned(opt.workload, ls); err != nil {
		return nil, err
	}
	rep.Metrics, rep.Unmeasured = m, ls.unmeasured
	return rep, writeTrace(opt, tr, prof.Bytes(), rep, walls, traced)
}

// checkOwned holds a traced run to the per-layer metrics its workload
// owns: each must be measured or carry the reason it could not be, and
// nothing else may be set, so a misspelt or dropped metric fails the run
// instead of printing as an unreached layer's 0.
func checkOwned(workload string, ls *layerSet) error {
	want := make(map[string]bool)
	for _, d := range ownedLayers(workload) {
		want[d.Name] = true
		_, set := ls.m[d.Name]
		if _, why := ls.unmeasured[d.Name]; set == why {
			return fmt.Errorf("%s: per-layer metric %s is neither measured nor explained (or both)", workload, d.Name)
		}
	}
	var stray []string
	for name := range ls.m {
		if !want[name] {
			stray = append(stray, name)
		}
	}
	for name := range ls.unmeasured {
		if !want[name] {
			stray = append(stray, name)
		}
	}
	if len(stray) > 0 {
		sort.Strings(stray)
		return fmt.Errorf("%s: per-layer metrics %s are not among those the workload owns", workload, strings.Join(stray, ", "))
	}
	return nil
}

// tally adds a round's operation counts and failures to the report.
func (r *report) tally(rs *roundStats) {
	r.Attempted += rs.attempted
	r.Failed += rs.failed
	for _, e := range rs.errs {
		if len(r.Errors) < maxErrs {
			r.Errors = append(r.Errors, e)
		}
	}
}

// finite rejects a report whose value for one of defs is missing, with no
// reason given, or is not finite.
func (r *report) finite(defs []metricDef) error {
	for _, d := range defs {
		v, ok := r.Metrics[d.Name]
		if _, why := r.Unmeasured[d.Name]; !ok && why {
			continue
		}
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s has no finite value", r.Workload, d.Name)
		}
	}
	return nil
}

// writeTrace stores a traced run's Chrome trace, CPU profile and
// per-layer summary under outDir/trace.
func writeTrace(opt runOpts, tr *tracer, prof []byte, rep *report, walls []float64, traced *roundStats) error {
	dir := filepath.Join(opt.outDir, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, opt.workload)
	var chrome bytes.Buffer
	if err := tr.writeChrome(&chrome, opt.workload); err != nil {
		return err
	}
	summary, err := json.MarshalIndent(map[string]any{
		"workload":              opt.workload,
		"seed":                  opt.seed,
		"untraced_round_wall_s": walls,
		"traced_round_wall_s":   traced.wall.Seconds(),
		"spans":                 tr.totals(),
		"per_layer":             rep.Metrics,
	}, "", "  ")
	if err != nil {
		return err
	}
	for name, body := range map[string][]byte{
		base + ".trace.json":   chrome.Bytes(),
		base + ".cpu.pprof":    prof,
		base + ".summary.json": append(summary, '\n'),
	} {
		if err := os.WriteFile(name, body, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// peakRSS reads the process's resident-set high-water mark in bytes.
func peakRSS() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb * 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	return 0, errors.New("peak RSS: no VmHWM line in /proc/self/status")
}

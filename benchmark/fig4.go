package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"math"
	"strings"
	"time"

	"dstore/internal/bench"
	"dstore/internal/core"
	"dstore/internal/serve"
	"dstore/internal/sim"
)

// fig4Digests holds the SHA-256 of serve.EncodeComparison for every
// Table II benchmark and input, one "CODE input digest" line each, as
// bench.SweepWithConfigs produces them (regenerate with
// `go test -run TestFig4Digests -update`).
//
//go:embed testdata/fig4.sha256
var fig4Digests string

// The paper's Fig. 4 geomean speedups, in percent, for small and big
// inputs.
var paperGeomean = map[bench.Input]float64{bench.Small: 7.8, bench.Big: 5.7}

// fig4 runs the paper's full Fig. 4 sweep: every Table II benchmark at
// both input sizes under CCSM and direct store, each run on a fresh
// system whose caches start empty, one run at a time. The seed permutes
// the run order.
type fig4 struct {
	runs   []fig4Run
	inputs []bench.Input
	codes  []string
	want   map[string]string // comparisonKey -> digest
}

type fig4Run struct {
	code string
	in   bench.Input
	mode core.Mode
}

func comparisonKey(code string, in bench.Input) string { return code + " " + in.String() }

func parseDigests(text string) (map[string]string, error) {
	want := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		f := strings.Fields(line)
		if len(f) != 3 {
			return nil, fmt.Errorf("fig4 digests: malformed line %q", line)
		}
		want[f[0]+" "+f[1]] = f[2]
	}
	return want, nil
}

func (f *fig4) setup(e *env) error {
	f.codes, f.inputs = bench.Codes(), []bench.Input{bench.Small, bench.Big}
	if e.scale == tinyScale {
		// BP stalls the CPU store buffer; NN's big input evicts from the
		// GPU L2 and writes back to DRAM: every counter moves.
		f.codes = []string{"BP", "NN"}
	}
	var err error
	if f.want, err = parseDigests(fig4Digests); err != nil {
		return err
	}
	for _, in := range f.inputs {
		for _, code := range f.codes {
			if _, ok := f.want[comparisonKey(code, in)]; !ok {
				return fmt.Errorf("fig4 digests: no entry for %s", comparisonKey(code, in))
			}
			for _, mode := range []core.Mode{core.ModeCCSM, core.ModeDirectStore} {
				f.runs = append(f.runs, fig4Run{code, in, mode})
			}
		}
	}
	e.rng(0).Shuffle(len(f.runs), func(i, j int) { f.runs[i], f.runs[j] = f.runs[j], f.runs[i] })
	return nil
}

func (f *fig4) round(e *env, tr *tracer) (*roundStats, error) {
	rs := newRoundStats()
	results := make(map[fig4Run]bench.Result, len(f.runs))
	wallBy := make(map[bench.Input]time.Duration)
	c := simCounts{}
	rs.start = time.Now()
	for _, r := range f.runs {
		t0 := time.Now()
		res, err := f.run(r, tr, c)
		d := time.Since(t0)
		rs.op(err)
		if err != nil {
			continue
		}
		rs.addLat("run", d)
		wallBy[r.in] += d
		results[r] = res
	}
	rs.wall = time.Since(rs.start)
	rs.items = c["sim.events"]
	for k, v := range c.layer() {
		rs.layer[k] = v
	}
	rs.layer["bench.small_wall_s"] = wallBy[bench.Small].Seconds()
	rs.layer["bench.big_wall_s"] = wallBy[bench.Big].Seconds()

	// Oracle: every comparison must encode to its committed digest.
	var gap float64
	for _, in := range f.inputs {
		var cs []bench.Comparison
		for _, code := range f.codes {
			cmp := bench.Comparison{Code: code, In: in,
				CCSM: results[fig4Run{code, in, core.ModeCCSM}],
				DS:   results[fig4Run{code, in, core.ModeDirectStore}]}
			cs = append(cs, cmp)
			body, err := serve.EncodeComparison(cmp)
			if err != nil {
				return nil, err
			}
			sum := sha256.Sum256(body)
			if got, want := hex.EncodeToString(sum[:]), f.want[comparisonKey(code, in)]; got != want {
				rs.fail(fmt.Errorf("fig4 %s: comparison digest %.12s, want %.12s", comparisonKey(code, in), got, want))
			}
		}
		gap = math.Max(gap, math.Abs(100*bench.GeomeanSpeedup(cs)-paperGeomean[in]))
	}
	rs.layer["bench.paper_gap_pp"] = gap
	return rs, nil
}

// run simulates one benchmark exactly as bench.RunWithConfigContext
// does, phase by phase so each phase kind can be timed and its events
// counted.
func (f *fig4) run(r fig4Run, tr *tracer, c simCounts) (bench.Result, error) {
	cfg := core.DefaultConfig(r.mode)
	t := tr.now()
	sys := core.NewSystem(cfg)
	tr.add("core.new_system", 0, t)
	t = tr.now()
	w, err := bench.Build(sys, r.code, r.in)
	tr.add("bench.build", 0, t)
	if err != nil {
		return bench.Result{}, err
	}
	phases := make([]sim.Tick, 0, w.Phases())
	for i := 0; i < w.Phases(); i++ {
		events, kernels := sys.Engine.Executed(), sys.GPU.Counters().Get("kernel_launches")
		t = tr.now()
		per, err := w.RunPhaseRangeContext(context.Background(), sys, i, i+1)
		kind := "readback"
		switch {
		case i == 0:
			kind = "produce"
		case sys.GPU.Counters().Get("kernel_launches") > kernels:
			kind = "kernel"
		}
		tr.add("phase."+kind, 0, t)
		if err != nil {
			return bench.Result{}, fmt.Errorf("bench %s (%s, %s): %w", r.code, r.mode, r.in, err)
		}
		c["raw.events."+kind] += float64(sys.Engine.Executed() - events)
		phases = append(phases, per...)
	}
	t = tr.now()
	err = sys.CheckCoherence()
	tr.add("core.check_coherence", 0, t)
	if err != nil {
		return bench.Result{}, fmt.Errorf("bench %s (%s, %s): %w", r.code, r.mode, r.in, err)
	}
	c.add(sys)
	return bench.Result{
		Code: r.code, Mode: r.mode, In: r.in,
		Ticks:       sys.Now(),
		PhaseTicks:  phases,
		L2Accesses:  sys.GPUL2Accesses(),
		L2Misses:    sys.GPUL2Misses(),
		MissRate:    sys.GPUL2MissRate(),
		Pushes:      sys.PushesReceived(),
		XbarBytes:   sys.CoherenceTrafficBytes(),
		DirectBytes: sys.DirectTrafficBytes(),
	}, nil
}

// simCounts sums the layers' public counters over a round's runs, keyed
// by metric name; the terms only a ratio or a per-event time needs are
// keyed "raw.*" and are not reported.
type simCounts map[string]float64

func (c simCounts) add(sys *core.System) {
	c["sim.events"] += float64(sys.Engine.Executed())
	c["sim.ticks"] += float64(sys.Now())
	g := sys.GPU.Counters()
	c["gpu.load_lines"] += float64(g.Get("global_load_lines"))
	c["gpu.store_lines"] += float64(g.Get("global_store_lines"))
	c["gpu.shared_ops"] += float64(g.Get("shared_ops"))
	c["gpu.l1_mshr_stalls"] += float64(g.Get("l1_mshr_stalls"))
	for _, sl := range sys.Slices {
		l2 := sl.L2Cache().Counters()
		c["cache.gpu_l2_accesses"] += float64(l2.Get("accesses"))
		c["raw.gpu_l2_misses"] += float64(l2.Get("misses"))
		c["cache.gpu_l2_evictions"] += float64(l2.Get("evictions"))
		c["coherence.pushes_received"] += float64(sl.Counters().Get("pushes_received"))
		c["coherence.mshr_stalls"] += float64(sl.Counters().Get("mshr_stalls"))
	}
	cpuL2 := sys.CPUCtrl.L2Cache().Counters()
	c["raw.cpu_l2_accesses"] += float64(cpuL2.Get("accesses"))
	c["raw.cpu_l2_misses"] += float64(cpuL2.Get("misses"))
	c["coherence.mshr_stalls"] += float64(sys.CPUCtrl.Counters().Get("mshr_stalls"))
	mem := sys.Mem.Counters()
	c["coherence.requests"] += float64(mem.Get("requests"))
	c["coherence.probes_sent"] += float64(mem.Get("probes_sent"))
	c["coherence.data_from_dram"] += float64(mem.Get("data_from_dram"))
	c["coherence.data_from_peer"] += float64(mem.Get("data_from_peer"))
	c["coherence.writebacks"] += float64(mem.Get("writebacks"))
	net := sys.Net.Counters()
	c["interconnect.xbar_messages"] += float64(net.Get("messages"))
	c["interconnect.xbar_bytes"] += float64(net.Get("bytes"))
	c["interconnect.direct_bytes"] += float64(sys.Direct.Counters().Get("bytes"))
	d := sys.DRAM.Counters()
	c["dram.reads"] += float64(d.Get("reads"))
	c["dram.writes"] += float64(d.Get("writes"))
	c["raw.dram_row_hits"] += float64(d.Get("row_hits"))
	c["raw.dram_row_misses"] += float64(d.Get("row_misses"))
	c["cpu.store_buffer_stall_ticks"] += float64(sys.Core.Counters().Get("store_buffer_stall_ticks"))
}

// layer returns the summed counts with the ratios added.
func (c simCounts) layer() map[string]float64 {
	m := make(map[string]float64, len(c)+3)
	for k, v := range c {
		m[k] = v
	}
	m["cache.gpu_l2_miss_ratio"] = ratio(c["raw.gpu_l2_misses"], c["cache.gpu_l2_accesses"])
	m["cache.cpu_l2_miss_ratio"] = ratio(c["raw.cpu_l2_misses"], c["raw.cpu_l2_accesses"])
	m["dram.row_hit_ratio"] = ratio(c["raw.dram_row_hits"], c["raw.dram_row_hits"]+c["raw.dram_row_misses"])
	return m
}

func (f *fig4) verify(*env) []string { return nil }

func (f *fig4) layers(_ *env, untraced []*roundStats, traced *roundStats, tr *tracer, ls *layerSet) error {
	for k, v := range traced.layer {
		if !strings.HasPrefix(k, "raw.") {
			ls.m[k] = v
		}
	}
	spans := tr.totals()
	for _, name := range []string{"bench.build", "core.new_system", "core.check_coherence",
		"phase.produce", "phase.kernel", "phase.readback"} {
		ls.m[name+"_s"] = spans[name].Total
	}
	ls.m["sim.produce_ns_per_event"] = 1e9 * ratio(spans["phase.produce"].Total, traced.layer["raw.events.produce"])
	ls.m["sim.kernel_ns_per_event"] = 1e9 * ratio(spans["phase.kernel"].Total, traced.layer["raw.events.kernel"])
	ls.m["bench.small_wall_s"] = median(perRound(untraced, "bench.small_wall_s"))
	ls.m["bench.big_wall_s"] = median(perRound(untraced, "bench.big_wall_s"))
	runs := pooled(untraced, "run")
	ls.pct("bench.run_p50_ms", runs, 50)
	ls.pct("bench.run_p75_ms", runs, 75)
	return nil
}

func (f *fig4) close() {}

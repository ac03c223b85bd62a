// Benchmark harness regenerating the paper's evaluation (DESIGN.md §4).
// Each Benchmark regenerates one table or figure; metrics that matter
// are reported via b.ReportMetric so `go test -bench` output carries
// the paper-comparable numbers:
//
//	go test -bench=Fig4 -benchmem        # Fig. 4 speedups
//	go test -bench=. -benchmem           # everything
//
// The full-figure benches run the entire 22-benchmark suite per
// iteration (tens of seconds); go test runs them once.
package dstore

import (
	"context"
	"testing"

	"dstore/internal/bench"
	"dstore/internal/core"
)

// compareWith runs one benchmark under two explicit configurations
// (baseline first) as a one-job sweep.
func compareWith(code string, in Input, base, ds core.Config) (BenchComparison, error) {
	cs, err := bench.SweepWithConfigs([]bench.SweepJob{{Code: code, In: in, Base: base, DS: ds}}, bench.SweepOptions{Workers: 1})
	if err != nil {
		return BenchComparison{}, err
	}
	return cs[0], nil
}

// BenchmarkTable1Config regenerates Table I (system configuration).
func BenchmarkTable1Config(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if Table1().NumRows() == 0 {
			b.Fatal("empty Table I")
		}
	}
}

// BenchmarkTable2Registry regenerates Table II (benchmark inventory).
func BenchmarkTable2Registry(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if Table2().NumRows() != 22 {
			b.Fatal("Table II does not list 22 benchmarks")
		}
	}
}

// runFig runs the full 22-benchmark comparison for one input size and
// reports the paper's headline metrics.
func runFig(b *testing.B, in Input) []BenchComparison {
	b.Helper()
	var cs []BenchComparison
	for i := 0; i < b.N; i++ {
		var err error
		cs, err = RunAllBenchmarks(in)
		if err != nil {
			b.Fatal(err)
		}
	}
	return cs
}

// BenchmarkFig4SpeedupSmall regenerates Fig. 4 (top): direct-store
// speedup over CCSM for small inputs. Paper geomean of non-zero
// speedups: 7.8%.
func BenchmarkFig4SpeedupSmall(b *testing.B) {
	cs := runFig(b, Small)
	b.ReportMetric(GeomeanSpeedup(cs)*100, "geomean-speedup-%")
}

// BenchmarkFig4SpeedupBig regenerates Fig. 4 (bottom): big inputs.
// Paper geomean: 5.7%.
func BenchmarkFig4SpeedupBig(b *testing.B) {
	cs := runFig(b, Big)
	b.ReportMetric(GeomeanSpeedup(cs)*100, "geomean-speedup-%")
}

// BenchmarkFig5MissRateSmall regenerates Fig. 5 (top): GPU L2 miss
// rates for small inputs. Paper geomeans: CCSM 9.3%, DS 7.3%.
func BenchmarkFig5MissRateSmall(b *testing.B) {
	cs := runFig(b, Small)
	ccsm, ds := GeomeanMissRates(cs)
	b.ReportMetric(ccsm*100, "ccsm-missrate-%")
	b.ReportMetric(ds*100, "ds-missrate-%")
}

// BenchmarkFig5MissRateBig regenerates Fig. 5 (bottom): big inputs.
// Paper geomeans: CCSM 12.5%, DS 11.1%.
func BenchmarkFig5MissRateBig(b *testing.B) {
	cs := runFig(b, Big)
	ccsm, ds := GeomeanMissRates(cs)
	b.ReportMetric(ccsm*100, "ccsm-missrate-%")
	b.ReportMetric(ds*100, "ds-missrate-%")
}

// BenchmarkPrefetchComparison reproduces the §IV remark: "we have also
// compared direct stores to prefetching and find that direct store's
// performance improvements there are even higher" — i.e. DS beats even
// a prefetch-augmented CCSM baseline.
func BenchmarkPrefetchComparison(b *testing.B) {
	pf := core.DefaultConfig(core.ModeCCSM)
	pf.PrefetchDepth = 4
	var vsPlain, vsPf float64
	for i := 0; i < b.N; i++ {
		plain, err := bench.Compare("NN", bench.Small)
		if err != nil {
			b.Fatal(err)
		}
		pfc, err := compareWith("NN", bench.Small, pf,
			core.DefaultConfig(core.ModeDirectStore))
		if err != nil {
			b.Fatal(err)
		}
		vsPlain, vsPf = plain.Speedup(), pfc.Speedup()
	}
	b.ReportMetric(vsPlain*100, "ds-vs-ccsm-%")
	b.ReportMetric(vsPf*100, "ds-vs-prefetch-%")
}

// BenchmarkStandaloneMode runs direct store as a full CCSM replacement
// (§III-H): the ordering point stops cross-probing between CPU and
// GPU.
func BenchmarkStandaloneMode(b *testing.B) {
	var s float64
	for i := 0; i < b.N; i++ {
		c, err := compareWith("BL", bench.Small,
			core.DefaultConfig(core.ModeCCSM), core.DefaultConfig(core.ModeStandalone))
		if err != nil {
			b.Fatal(err)
		}
		s = c.Speedup()
	}
	b.ReportMetric(s*100, "standalone-speedup-%")
}

// ablation runs NN/small under direct store with a config mutation and
// reports the speedup delta against the unmodified direct store.
func ablation(b *testing.B, mutate func(*core.Config)) {
	b.Helper()
	var base, abl float64
	for i := 0; i < b.N; i++ {
		ref, err := bench.Compare("NN", bench.Small)
		if err != nil {
			b.Fatal(err)
		}
		cfg := core.DefaultConfig(core.ModeDirectStore)
		mutate(&cfg)
		mod, err := compareWith("NN", bench.Small,
			core.DefaultConfig(core.ModeCCSM), cfg)
		if err != nil {
			b.Fatal(err)
		}
		base, abl = ref.Speedup(), mod.Speedup()
	}
	b.ReportMetric(base*100, "paper-design-%")
	b.ReportMetric(abl*100, "ablated-%")
}

// BenchmarkAblationNoGetx drops the GETX control flit preceding each
// PUTX (§III-F's "the CPU will issue GETX command").
func BenchmarkAblationNoGetx(b *testing.B) {
	ablation(b, func(c *core.Config) { c.DirectGetx = false })
}

// BenchmarkAblationSharedNetwork routes pushes over the shared crossbar
// instead of the dedicated network of §III-G.
func BenchmarkAblationSharedNetwork(b *testing.B) {
	ablation(b, func(c *core.Config) { c.DirectOverXbar = true })
}

// BenchmarkAblationPushWriteThrough installs pushes exclusive-clean
// with a memory write-through instead of the paper's MM (§III-F).
func BenchmarkAblationPushWriteThrough(b *testing.B) {
	ablation(b, func(c *core.Config) { c.PushWriteThrough = true })
}

// BenchmarkAblationSharedNetworkOverlapped repeats the shared-network
// ablation with the CPU producing *while* the GPU consumes — the
// pattern where the dedicated network's contention avoidance actually
// matters (phase-serialized runs barely exercise it).
func BenchmarkAblationSharedNetworkOverlapped(b *testing.B) {
	const bytes = 512 * 1024
	run := func(cfg core.Config) Tick {
		sys := core.NewSystem(cfg)
		base, err := sys.AllocShared(bytes, "stream")
		if err != nil {
			b.Fatal(err)
		}
		var ops []CPUOp
		for a := base; a < base+bytes; a += 128 {
			ops = append(ops, CPUOp{Type: StoreOp, Addr: a})
		}
		const warps = 96
		lines := bytes / 128
		var ws []Warp
		for w := 0; w < warps; w++ {
			var wops []WarpOp
			for i := w; i < lines; i += warps {
				wops = append(wops,
					WarpOp{Kind: OpGlobalLoad, Addr: base + Addr(i*128), Lines: 1},
					WarpOp{Kind: OpCompute, Gap: 60})
			}
			ws = append(ws, Warp{Ops: wops})
		}
		return sys.RunOverlapped(ops, Kernel{Name: "stream", Warps: ws})
	}
	var dedicated, shared Tick
	for i := 0; i < b.N; i++ {
		dedicated = run(core.DefaultConfig(core.ModeDirectStore))
		cfg := core.DefaultConfig(core.ModeDirectStore)
		cfg.DirectOverXbar = true
		shared = run(cfg)
	}
	b.ReportMetric(float64(dedicated), "dedicated-ticks")
	b.ReportMetric(float64(shared), "shared-xbar-ticks")
}

// BenchmarkAblationDirectBandwidth halves and doubles the dedicated
// network's width around the default (32 B/tick, matching the
// coherence network per §III-G).
func BenchmarkAblationDirectBandwidth(b *testing.B) {
	var narrow, wide float64
	for i := 0; i < b.N; i++ {
		n := core.DefaultConfig(core.ModeDirectStore)
		n.DirectBW = 16
		w := core.DefaultConfig(core.ModeDirectStore)
		w.DirectBW = 64
		cn, err := compareWith("NN", bench.Small, core.DefaultConfig(core.ModeCCSM), n)
		if err != nil {
			b.Fatal(err)
		}
		cw, err := compareWith("NN", bench.Small, core.DefaultConfig(core.ModeCCSM), w)
		if err != nil {
			b.Fatal(err)
		}
		narrow, wide = cn.Speedup(), cw.Speedup()
	}
	b.ReportMetric(narrow*100, "16B/t-%")
	b.ReportMetric(wide*100, "64B/t-%")
}

// BenchmarkSimulatorThroughput measures raw simulation speed (events
// per second) on a representative benchmark, for harness health.
func BenchmarkSimulatorThroughput(b *testing.B) {
	var events uint64
	var ticks Tick
	for i := 0; i < b.N; i++ {
		sys := NewSystem(DefaultConfig(DirectStore))
		w, err := bench.Build(sys, "HT", bench.Small)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := w.RunPhaseRangeContext(context.Background(), sys, 0, w.Phases()); err != nil {
			b.Fatal(err)
		}
		ticks = sys.Now()
		events = sys.Engine.Executed()
	}
	b.ReportMetric(float64(events), "events/run")
	b.ReportMetric(float64(ticks), "ticks/run")
}

// BenchmarkAblationSRRIP swaps the GPU L2 slices' replacement policy
// from LRU to scan-resistant SRRIP and measures the effect on a
// capacity-pressured streaming benchmark.
func BenchmarkAblationSRRIP(b *testing.B) {
	var lru, srrip float64
	for i := 0; i < b.N; i++ {
		base, err := bench.Compare("VA", bench.Big)
		if err != nil {
			b.Fatal(err)
		}
		cfg := core.DefaultConfig(core.ModeDirectStore)
		cfg.GPUL2Policy = "srrip"
		mod, err := compareWith("VA", bench.Big,
			core.DefaultConfig(core.ModeCCSM), cfg)
		if err != nil {
			b.Fatal(err)
		}
		lru, srrip = base.Speedup(), mod.Speedup()
	}
	b.ReportMetric(lru*100, "lru-%")
	b.ReportMetric(srrip*100, "srrip-%")
}

// BenchmarkAblationRingNoC swaps the coherence crossbar for the ring
// topology.
func BenchmarkAblationRingNoC(b *testing.B) {
	var xbar, ring float64
	for i := 0; i < b.N; i++ {
		base, err := bench.Compare("BL", bench.Small)
		if err != nil {
			b.Fatal(err)
		}
		cfg := core.DefaultConfig(core.ModeDirectStore)
		cfg.NoC = "ring"
		ccsm := core.DefaultConfig(core.ModeCCSM)
		ccsm.NoC = "ring"
		mod, err := compareWith("BL", bench.Small, ccsm, cfg)
		if err != nil {
			b.Fatal(err)
		}
		xbar, ring = base.Speedup(), mod.Speedup()
	}
	b.ReportMetric(xbar*100, "xbar-%")
	b.ReportMetric(ring*100, "ring-%")
}

// BenchmarkRegionCoherenceBaseline compares direct store against the
// HSC-style region-directory baseline (the paper's reference [2]): a
// CCSM whose private-region requests skip the Hammer broadcast. Direct
// store should retain an edge — the probe filter removes probe traffic
// but cannot pre-place the data.
func BenchmarkRegionCoherenceBaseline(b *testing.B) {
	hsc := core.DefaultConfig(core.ModeCCSM)
	hsc.RegionDirectory = true
	var vsPlain, vsHSC float64
	for i := 0; i < b.N; i++ {
		plain, err := bench.Compare("NN", bench.Small)
		if err != nil {
			b.Fatal(err)
		}
		h, err := compareWith("NN", bench.Small, hsc,
			core.DefaultConfig(core.ModeDirectStore))
		if err != nil {
			b.Fatal(err)
		}
		vsPlain, vsHSC = plain.Speedup(), h.Speedup()
	}
	b.ReportMetric(vsPlain*100, "ds-vs-hammer-%")
	b.ReportMetric(vsHSC*100, "ds-vs-region-dir-%")
}

// Command dstore-bench regenerates the paper's evaluation tables and
// figures on the simulated system.
//
// Usage:
//
//	dstore-bench -table1            # Table I: system configuration
//	dstore-bench -table2            # Table II: benchmark inventory
//	dstore-bench -fig4              # Fig. 4: speedup, small and big inputs
//	dstore-bench -fig5              # Fig. 5: GPU L2 miss rate, small and big
//	dstore-bench -prefetch          # §IV: direct store vs prefetching
//	dstore-bench -standalone        # §III-H: stand-alone direct store
//	dstore-bench -bench MM -input big   # one benchmark in detail
//	dstore-bench -all               # everything
//
// Sweeps fan out across cores: -workers N bounds the number of
// concurrent benchmark runs (default GOMAXPROCS; 1 recovers the strictly
// sequential behaviour). The output is byte-identical for every worker
// count. -timing reports per-experiment wall clock on stderr — and,
// per benchmark, the host-side setup/run/report phase breakdown — and
// -cpuprofile/-memprofile write pprof profiles for diagnosing
// performance regressions.
//
// With -bench, the observability flags compare the two modes side by
// side (see DESIGN.md §10):
//
//	dstore-bench -bench NN -input small -hist            # latency histograms, CCSM vs DS
//	dstore-bench -bench NN -input small -trace nn.json   # nn.ccsm.json + nn.ds.json
//	dstore-bench -bench NN -input small -timeseries nn.csv
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"dstore/internal/bench"
	"dstore/internal/core"
	"dstore/internal/obs"
	"dstore/internal/stats"
)

// emitJSON dumps one figure's comparisons as a JSON document carrying
// every measured field (ticks, accesses, misses, traffic, pushes).
func emitJSON(name string, cs []bench.Comparison) {
	type row struct {
		bench.Comparison
		Speedup       float64 `json:"speedup"`
		MissRateDelta float64 `json:"miss_rate_delta"`
	}
	rows := make([]row, len(cs))
	for i, c := range cs {
		rows[i] = row{Comparison: c, Speedup: c.Speedup(), MissRateDelta: c.MissRateDelta()}
	}
	doc := map[string]any{"figure": name, "rows": rows, "geomean_speedup": bench.GeomeanSpeedup(cs)}
	out, err := json.MarshalIndent(doc, "", "  ")
	fail(err)
	fmt.Println(string(out))
}

var timing bool

// timed runs f and, under -timing, reports its wall clock on stderr so
// it never contaminates the figure output.
func timed(name string, f func()) {
	start := time.Now()
	f()
	if timing {
		fmt.Fprintf(os.Stderr, "timing: %-12s %8.2fs\n", name, time.Since(start).Seconds())
	}
}

// hostClock backs the -timing phase breakdown. It lives in cmd/,
// outside the determinism contract: host wall time is measured around
// the simulation, never inside it, so results are identical with the
// clock on or off.
func hostClock() uint64 { return uint64(time.Now().UnixNano()) }

// reportPhases prints one benchmark's host-side phase breakdown.
func reportPhases(code string, in bench.Input, hp bench.HostPhases) {
	const ns = 1e9
	fmt.Fprintf(os.Stderr, "timing: %-3s/%-5s setup %6.3fs  run %6.3fs  report %6.3fs\n",
		code, in, float64(hp.SetupNS)/ns, float64(hp.RunNS)/ns, float64(hp.ReportNS)/ns)
}

// sweepFailed records that at least one sweep lost benchmarks, so the
// process can exit non-zero after rendering whatever survived.
var sweepFailed bool

// sweep runs jobs through the worker pool and renders what succeeded.
// A *bench.SweepError is reported per failure on stderr without
// suppressing the surviving results, and marks the run failed so main
// exits 1; any other error is fatal. Ctrl-C cancels the sweep through
// ctx: in-flight simulations abort and the remaining jobs surface as
// cancellation failures.
func sweep(ctx context.Context, jobs []bench.SweepJob, opt bench.SweepOptions) []bench.Comparison {
	if timing {
		opt.Clock = hostClock
	}
	cs, timings, err := bench.SweepWithTimingsContext(ctx, jobs, opt)
	if timing {
		for i, hp := range timings {
			reportPhases(jobs[i].Code, jobs[i].In, hp)
		}
	}
	if err != nil {
		se, ok := err.(*bench.SweepError)
		if !ok {
			fail(err)
		}
		fmt.Fprintln(os.Stderr, se)
		sweepFailed = true
		failed := se.FailedIndices()
		ok2 := cs[:0]
		for i, c := range cs {
			if !failed[i] {
				ok2 = append(ok2, c)
			}
		}
		cs = ok2
	}
	return cs
}

func main() {
	var (
		table1     = flag.Bool("table1", false, "print the Table I system configuration")
		table2     = flag.Bool("table2", false, "print the Table II benchmark inventory")
		fig4       = flag.Bool("fig4", false, "regenerate Fig. 4 (speedup)")
		fig5       = flag.Bool("fig5", false, "regenerate Fig. 5 (GPU L2 miss rate)")
		prefetch   = flag.Bool("prefetch", false, "compare direct store against a prefetching baseline")
		standalone = flag.Bool("standalone", false, "run direct store as a stand-alone replacement (§III-H)")
		one        = flag.String("bench", "", "run a single benchmark (code from Table II)")
		input      = flag.String("input", "both", "input size: small, big or both")
		all        = flag.Bool("all", false, "run every experiment")
		asJSON     = flag.Bool("json", false, "emit figure data as JSON instead of text tables")
		workers    = flag.Int("workers", runtime.GOMAXPROCS(0), "concurrent benchmark runs per sweep (1 = sequential)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")

		traceF  = flag.String("trace", "", "with -bench: write per-mode Chrome traces (FILE.ccsm.json and FILE.ds.json)")
		histOut = flag.Bool("hist", false, "with -bench: print latency histograms for both modes side by side")
		seriesF = flag.String("timeseries", "", "with -bench: write per-mode time-series files (.csv or .json by extension)")
	)
	flag.BoolVar(&timing, "timing", false, "report per-experiment wall clock on stderr")
	flag.Parse()

	if *all {
		*table1, *table2, *fig4, *fig5, *prefetch, *standalone = true, true, true, true, true, true
	}
	if !*table1 && !*table2 && !*fig4 && !*fig5 && !*prefetch && !*standalone && *one == "" {
		flag.Usage()
		os.Exit(2)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		fail(err)
		fail(pprof.StartCPUProfile(f))
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			fail(err)
			runtime.GC()
			fail(pprof.WriteHeapProfile(f))
			f.Close()
		}()
	}

	inputs := parseInputs(*input)
	opt := bench.SweepOptions{Workers: *workers}

	// Ctrl-C cancels in-flight sweeps instead of killing the process
	// mid-write; a second Ctrl-C falls back to the default handler.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stopSignals()

	if *table1 {
		fmt.Println("TABLE I: SYSTEM CONFIGURATION")
		fmt.Println(core.DefaultConfig(core.ModeCCSM).Table1())
	}
	if *table2 {
		fmt.Println("TABLE II: BENCHMARKS")
		fmt.Println(bench.Table2())
	}
	if *one != "" {
		obsWanted := *traceF != "" || *histOut || *seriesF != ""
		for _, in := range inputs {
			base := core.DefaultConfig(core.ModeCCSM)
			ds := core.DefaultConfig(core.ModeDirectStore)
			if obsWanted {
				base.Obs = obs.New(obs.Options{Trace: *traceF != "", Hist: *histOut, TimeSeries: *seriesF != ""})
				ds.Obs = obs.New(obs.Options{Trace: *traceF != "", Hist: *histOut, TimeSeries: *seriesF != ""})
			}
			var clk obs.Clock
			if timing {
				clk = hostClock
			}
			c, hp, err := bench.CompareWithConfigsTimedContext(ctx, *one, in, base, ds, clk)
			fail(err)
			printComparison(c)
			if timing {
				reportPhases(*one, in, hp)
			}
			if *histOut {
				printHistPair(base.Obs, ds.Obs)
			}
			if *traceF != "" {
				writeModeFile(*traceF, "ccsm", base.Obs.WriteTrace)
				writeModeFile(*traceF, "ds", ds.Obs.WriteTrace)
			}
			if *seriesF != "" {
				writeModeFile(*seriesF, "ccsm", seriesWriter(*seriesF, base.Obs))
				writeModeFile(*seriesF, "ds", seriesWriter(*seriesF, ds.Obs))
			}
		}
	}

	var byInput map[bench.Input][]bench.Comparison
	if *fig4 || *fig5 {
		byInput = map[bench.Input][]bench.Comparison{}
		for _, in := range inputs {
			in := in
			timed(fmt.Sprintf("fig4/5-%s", in), func() {
				byInput[in] = sweep(ctx, bench.StandardJobs(in), opt)
			})
		}
	}
	if *fig4 {
		for _, in := range inputs {
			if *asJSON {
				emitJSON(fmt.Sprintf("fig4-%s", in), byInput[in])
				continue
			}
			fmt.Printf("FIG. 4 (%s inputs): direct store speedup over CCSM\n", in)
			fmt.Println(bench.Fig4Table(in, byInput[in]))
		}
	}
	if *fig5 {
		for _, in := range inputs {
			if *asJSON {
				if !*fig4 { // else the fig4 JSON already carries the miss-rate fields
					emitJSON(fmt.Sprintf("fig5-%s", in), byInput[in])
				}
				continue
			}
			fmt.Printf("FIG. 5 (%s inputs): GPU L2 miss rate\n", in)
			fmt.Println(bench.Fig5Table(in, byInput[in]))
		}
	}
	if *prefetch {
		fmt.Println("DIRECT STORE vs PREFETCHING (CCSM + next-line L2 prefetcher)")
		pf := core.DefaultConfig(core.ModeCCSM)
		pf.PrefetchDepth = 4
		// Two jobs per benchmark: DS vs plain CCSM, then DS vs the
		// prefetching baseline. Pairs stay adjacent in job order.
		var jobs []bench.SweepJob
		for _, in := range inputs {
			for _, code := range []string{"NN", "VA", "BL", "MM", "HT"} {
				jobs = append(jobs,
					bench.SweepJob{Code: code, In: in,
						Base: core.DefaultConfig(core.ModeCCSM),
						DS:   core.DefaultConfig(core.ModeDirectStore)},
					bench.SweepJob{Code: code, In: in,
						Base: pf,
						DS:   core.DefaultConfig(core.ModeDirectStore)})
			}
		}
		var cs []bench.Comparison
		timed("prefetch", func() { cs = sweep(ctx, jobs, opt) })
		t := stats.NewTable("Benchmark", "Input", "DS vs CCSM", "DS vs CCSM+prefetch")
		for i := 0; i+1 < len(cs); i += 2 {
			plain, vsPf := cs[i], cs[i+1]
			t.AddRow(plain.Code, plain.In.String(), stats.Percent(plain.Speedup()), stats.Percent(vsPf.Speedup()))
		}
		fmt.Println(t)
	}
	if *standalone {
		fmt.Println("STAND-ALONE DIRECT STORE (§III-H): CCSM removed between CPU and GPU")
		var jobs []bench.SweepJob
		for _, in := range inputs {
			for _, code := range []string{"NN", "VA", "BL", "BP", "NW"} {
				jobs = append(jobs,
					bench.SweepJob{Code: code, In: in,
						Base: core.DefaultConfig(core.ModeCCSM),
						DS:   core.DefaultConfig(core.ModeDirectStore)},
					bench.SweepJob{Code: code, In: in,
						Base: core.DefaultConfig(core.ModeCCSM),
						DS:   core.DefaultConfig(core.ModeStandalone)})
			}
		}
		var cs []bench.Comparison
		timed("standalone", func() { cs = sweep(ctx, jobs, opt) })
		t := stats.NewTable("Benchmark", "Input", "DS speedup", "Standalone speedup")
		for i := 0; i+1 < len(cs); i += 2 {
			ds, sa := cs[i], cs[i+1]
			t.AddRow(ds.Code, ds.In.String(), stats.Percent(ds.Speedup()), stats.Percent(sa.Speedup()))
		}
		fmt.Println(t)
	}

	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "dstore-bench: interrupted — results above are partial")
		os.Exit(1)
	}
	if sweepFailed {
		fmt.Fprintln(os.Stderr, "dstore-bench: one or more benchmarks failed — results above are partial")
		os.Exit(1)
	}
}

func parseInputs(s string) []bench.Input {
	switch s {
	case "small":
		return []bench.Input{bench.Small}
	case "big":
		return []bench.Input{bench.Big}
	case "both":
		return []bench.Input{bench.Small, bench.Big}
	default:
		fmt.Fprintf(os.Stderr, "unknown input size %q (want small, big or both)\n", s)
		os.Exit(2)
		return nil
	}
}

func printComparison(c bench.Comparison) {
	fmt.Printf("%s (%s inputs)\n", c.Code, c.In)
	fmt.Printf("  CCSM: ticks=%d l2acc=%d l2miss=%d rate=%s xbar=%dB\n",
		c.CCSM.Ticks, c.CCSM.L2Accesses, c.CCSM.L2Misses, stats.Percent(c.CCSM.MissRate), c.CCSM.XbarBytes)
	fmt.Printf("  DS:   ticks=%d l2acc=%d l2miss=%d rate=%s xbar=%dB direct=%dB pushes=%d\n",
		c.DS.Ticks, c.DS.L2Accesses, c.DS.L2Misses, stats.Percent(c.DS.MissRate),
		c.DS.XbarBytes, c.DS.DirectBytes, c.DS.Pushes)
	fmt.Printf("  speedup=%s  miss-rate delta=%+.1fpp\n\n",
		stats.Percent(c.Speedup()), c.MissRateDelta()*100)
}

// printHistPair renders the latency histograms of the two modes one
// after the other, so the direct-store shift is visible in one scroll.
func printHistPair(ccsm, ds *obs.Observer) {
	for _, m := range []struct {
		label string
		o     *obs.Observer
	}{{"CCSM", ccsm}, {"DS", ds}} {
		for id := obs.HistID(0); id < obs.NumHists; id++ {
			h := m.o.Hist(id)
			if h.Count() == 0 {
				continue
			}
			fmt.Printf("[%s] ", m.label)
			h.WriteText(os.Stdout)
			fmt.Println()
		}
	}
}

// writeModeFile writes one mode's export next to the requested path:
// out.json becomes out.ccsm.json and out.ds.json.
func writeModeFile(path, mode string, write func(io.Writer) error) {
	ext := filepath.Ext(path)
	name := strings.TrimSuffix(path, ext) + "." + mode + ext
	f, err := os.Create(name)
	fail(err)
	fail(write(f))
	fail(f.Close())
	fmt.Fprintf(os.Stderr, "wrote %s\n", name)
}

// seriesWriter picks the CSV or JSON time-series encoding from the
// requested path's extension.
func seriesWriter(path string, o *obs.Observer) func(io.Writer) error {
	if strings.HasSuffix(path, ".json") {
		return o.WriteSeriesJSON
	}
	return o.WriteSeriesCSV
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

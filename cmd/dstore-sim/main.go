// Command dstore-sim runs a single Table II benchmark on the simulated
// integrated CPU-GPU system under a chosen coherence mode and prints a
// full statistics dump.
//
// Usage:
//
//	dstore-sim -bench NN -mode direct-store -input small
//	dstore-sim -bench MM -mode ccsm -input big -v
//	dstore-sim -bench MM -input big -json
//	dstore-sim -stress -chaos-seed 42 -chaos-profile heavy
//	dstore-sim -list
//
// -json emits the run as the canonical result document — the same
// encoding dstore-serve returns from POST /v1/runs — so CLI output and
// API responses are directly diffable.
//
// -stress runs the randomized coherence stress harness instead of a
// benchmark: seeded agents issue load/store/kernel streams against a
// data-value oracle while the -chaos-profile fault plan perturbs the
// fabric. The transcript is deterministic in (-chaos-seed,
// -chaos-profile); any invariant or oracle violation exits 1.
//
// Observability (see DESIGN.md §10):
//
//	dstore-sim -bench NN -trace out.json        # Chrome trace (Perfetto)
//	dstore-sim -bench NN -timeline lines.txt    # per-line coherence states
//	dstore-sim -bench NN -hist                  # latency histograms
//	dstore-sim -bench NN -timeseries ts.csv     # epoch-windowed series
//
// Traces are deterministic in (benchmark, input, mode, config): two
// runs produce byte-identical files. -trace validates the written file
// by re-parsing it through encoding/json before exiting.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"dstore/internal/bench"
	"dstore/internal/chaos"
	"dstore/internal/core"
	"dstore/internal/obs"
	"dstore/internal/script"
	"dstore/internal/serve"
	"dstore/internal/sim"
	"dstore/internal/stats"
)

func main() {
	var (
		code    = flag.String("bench", "", "benchmark code from Table II (see -list)")
		scriptF = flag.String("script", "", "run a workload script file instead of a benchmark")
		modeStr = flag.String("mode", "direct-store", "coherence mode: ccsm, direct-store or standalone")
		inStr   = flag.String("input", "small", "input size: small or big")
		verbose = flag.Bool("v", false, "dump per-component counters")
		jsonOut = flag.Bool("json", false, "emit the canonical result JSON (the dstore-serve encoding)")
		list    = flag.Bool("list", false, "list available benchmarks")

		stress       = flag.Bool("stress", false, "run the randomized coherence stress harness")
		chaosSeed    = flag.Uint64("chaos-seed", 1, "stress harness PRNG seed (transcript is deterministic in it)")
		chaosProfile = flag.String("chaos-profile", "none", "fault profile: none, light, heavy, drop-heavy or mutation")
		stressOps    = flag.Int("stress-ops", 0, "operations per stress instance (0 = harness default)")
		stressN      = flag.Int("stress-instances", 1, "independent stress instances (seeds seed, seed+1, ...)")
		stressW      = flag.Int("stress-workers", 1, "concurrent stress instances")

		traceF    = flag.String("trace", "", "write a Chrome trace-event JSON file (load in Perfetto or chrome://tracing)")
		traceCap  = flag.Int("trace-cap", 0, "trace ring-buffer capacity in events (0 = default; oldest events drop first)")
		timelineF = flag.String("timeline", "", "write a per-line coherence state-transition timeline to this file")
		histOut   = flag.Bool("hist", false, "print latency histograms (GPU loads, CPU stores, push-to-first-use) after the run")
		seriesF   = flag.String("timeseries", "", "write epoch-windowed time series to this file (.csv or .json by extension)")
		epoch     = flag.Uint64("epoch", 0, "time-series window width in ticks (0 = default)")
	)
	flag.Parse()

	if *list {
		fmt.Println(bench.Table2())
		return
	}
	if *code == "" && *scriptF == "" && !*stress {
		flag.Usage()
		os.Exit(2)
	}

	var mode core.Mode
	switch *modeStr {
	case "ccsm":
		mode = core.ModeCCSM
	case "direct-store":
		mode = core.ModeDirectStore
	case "standalone":
		mode = core.ModeStandalone
	default:
		fmt.Fprintf(os.Stderr, "unknown mode %q\n", *modeStr)
		os.Exit(2)
	}

	if *stress {
		prof, err := chaos.ProfileByName(*chaosProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		cfg := chaos.StressConfig{Seed: *chaosSeed, Ops: *stressOps, Mode: mode, Profile: prof, Kernels: true}
		results, err := chaos.RunSweep(cfg, *stressN, *stressW)
		for _, res := range results {
			if res == nil {
				continue
			}
			fmt.Print(res.Transcript)
			for _, v := range res.Violations {
				fmt.Fprintf(os.Stderr, "violation: %s\n", v)
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	in := bench.Small
	switch *inStr {
	case "small":
	case "big":
		in = bench.Big
	default:
		fmt.Fprintf(os.Stderr, "unknown input %q\n", *inStr)
		os.Exit(2)
	}

	// The observer is nil unless an observability flag asks for it, so a
	// plain run stays on the zero-overhead path.
	var o *obs.Observer
	if *traceF != "" || *timelineF != "" || *histOut || *seriesF != "" {
		o = obs.New(obs.Options{
			Trace:      *traceF != "" || *timelineF != "",
			TraceCap:   *traceCap,
			Hist:       *histOut,
			TimeSeries: *seriesF != "",
			Epoch:      sim.Tick(*epoch),
		})
	}
	cfg := core.DefaultConfig(mode)
	cfg.Obs = o

	if *jsonOut {
		if *scriptF != "" {
			fmt.Fprintln(os.Stderr, "-json requires -bench (scripts have no canonical result encoding)")
			os.Exit(2)
		}
		res, err := bench.RunWithConfig(*code, cfg, in)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		b, err := serve.EncodeResult(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println(string(b))
		writeObsOutputs(o, *traceF, *timelineF, *histOut, *seriesF)
		return
	}

	sys := core.NewSystem(cfg)
	var (
		total  sim.Tick
		phases []sim.Tick
		title  string
	)
	if *scriptF != "" {
		f, err := os.Open(*scriptF)
		failIf(err)
		sc, err := script.Parse(f)
		f.Close()
		failIf(err)
		total, err = sc.Run(sys)
		failIf(err)
		title = fmt.Sprintf("script %s under %s", *scriptF, mode)
	} else {
		w, err := bench.Build(sys, *code, in)
		failIf(err)
		phases, err = w.RunPhaseRangeContext(context.Background(), sys, 0, w.Phases())
		failIf(err)
		total = sys.Now()
		title = fmt.Sprintf("benchmark %s (%s inputs) under %s", *code, in, mode)
	}
	// The same end-of-run check a -json run gets: a user-written script
	// is where a coherence violation is most likely to show.
	failIf(sys.CheckCoherence())
	fmt.Printf("%s\n\n", title)
	t := stats.NewTable("Metric", "Value")
	t.AddRow("total ticks", fmt.Sprintf("%d", total))
	for i, p := range phases {
		t.AddRow(fmt.Sprintf("phase %d ticks", i+1), fmt.Sprintf("%d", p))
	}
	t.AddRow("GPU L2 accesses", fmt.Sprintf("%d", sys.GPUL2Accesses()))
	t.AddRow("GPU L2 misses", fmt.Sprintf("%d", sys.GPUL2Misses()))
	t.AddRow("GPU L2 miss rate", stats.Percent(sys.GPUL2MissRate()))
	t.AddRow("pushes received", fmt.Sprintf("%d", sys.PushesReceived()))
	t.AddRow("crossbar bytes", fmt.Sprintf("%d", sys.CoherenceTrafficBytes()))
	t.AddRow("direct-network bytes", fmt.Sprintf("%d", sys.DirectTrafficBytes()))
	t.AddRow("DRAM avg latency", fmt.Sprintf("%.1f ticks", sys.DRAM.AvgLatency()))
	t.AddRow("DRAM row-hit rate", stats.Percent(sys.DRAM.RowHitRate()))
	fmt.Println(t)

	o.FinishRun(sys.Now())
	writeObsOutputs(o, *traceF, *timelineF, *histOut, *seriesF)

	if *verbose {
		fmt.Println("cpu controller:")
		fmt.Print(indent(sys.CPUCtrl.Counters().Rows().Dump()))
		fmt.Println("cpu L2 array:")
		fmt.Print(indent(sys.CPUCtrl.L2Cache().Counters().Rows().Dump()))
		for i, sl := range sys.Slices {
			fmt.Printf("gpu L2 slice %d controller:\n", i)
			fmt.Print(indent(sl.Counters().Rows().Dump()))
			fmt.Printf("gpu L2 slice %d array:\n", i)
			fmt.Print(indent(sl.L2Cache().Counters().Rows().Dump()))
		}
		fmt.Println("gpu:")
		fmt.Print(indent(sys.GPU.Counters().Rows().Dump()))
		fmt.Println("memory controller:")
		fmt.Print(indent(sys.Mem.Counters().Rows().Dump()))
		fmt.Println("dram:")
		fmt.Print(indent(sys.DRAM.Counters().Rows().Dump()))
		fmt.Println("core:")
		fmt.Print(indent(sys.Core.Counters().Rows().Dump()))
	}
}

// writeObsOutputs exports whatever the observer collected.
func writeObsOutputs(o *obs.Observer, traceF, timelineF string, hist bool, seriesF string) {
	if o == nil {
		return
	}
	if traceF != "" {
		f, err := os.Create(traceF)
		failIf(err)
		failIf(o.WriteTrace(f))
		failIf(f.Close())
		fmt.Fprintf(os.Stderr, "trace: wrote %s (%d events, %d dropped)\n", traceF, len(o.Events()), o.Dropped())
	}
	if timelineF != "" {
		f, err := os.Create(timelineF)
		failIf(err)
		failIf(o.WriteTimeline(f))
		failIf(f.Close())
		fmt.Fprintf(os.Stderr, "timeline: wrote %s\n", timelineF)
	}
	if hist {
		fmt.Println()
		for id := obs.HistID(0); id < obs.NumHists; id++ {
			h := o.Hist(id)
			if h.Count() == 0 {
				fmt.Printf("%s: no samples\n", h.Name())
				continue
			}
			h.WriteText(os.Stdout)
			fmt.Println()
		}
	}
	if seriesF != "" {
		f, err := os.Create(seriesF)
		failIf(err)
		if strings.HasSuffix(seriesF, ".json") {
			err = o.WriteSeriesJSON(f)
		} else {
			err = o.WriteSeriesCSV(f)
		}
		failIf(err)
		failIf(f.Close())
		fmt.Fprintf(os.Stderr, "timeseries: wrote %s (%d windows)\n", seriesF, len(o.Samples()))
	}
}

func failIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func indent(s string) string {
	out := ""
	for _, ln := range splitLines(s) {
		if ln != "" {
			out += "  " + ln + "\n"
		}
	}
	return out
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

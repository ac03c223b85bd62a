// Command benchmark measures the simulator, the serving daemon, the sweep
// fleet and the protocol model checker end to end, one named workload at
// a time, and checks that every output is correct.
//
//	bash benchmark/run.sh --workload fig4 --seed 1 --seconds 15 --trace 0
//
// Each workload runs in a child process that re-executes this binary, so
// memory and GC state never carry over between workloads. The parent
// first launches setupSamples set-up-only children to time set-up, then
// one measuring child. It prints every metric as "workload metric value
// unit" and, as its last line, one JSON object:
//
//	{"correct": true, "attempted": 88, "failed": 0, "metrics": {"wall_s": {"value": 12.4, "unit": "s"}, ...}}
//
// --trace 0 reports the end-to-end metrics; --trace 1 reruns one round
// with spans and the CPU profiler on and reports the per-layer metrics,
// writing a Chrome trace, the profile and a summary under <out>/trace.
// With no --workload it runs every workload both ways. The exit status
// is 1 when any output check fails.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"time"
)

// setupSamples is how many set-up-only launches setup_s is the median of,
// setupGap apart. A launch takes a few milliseconds, and the host's speed
// changes in phases of tens of milliseconds: back to back, all of a run's
// launches can fall in one slow or fast phase, while spaced out they
// sample many, and each starts from an idle machine as a user's would.
const (
	setupSamples = 31
	setupGap     = 40 * time.Millisecond
)

// childTimeout bounds one child process beyond its measuring window.
const childTimeout = 150 * time.Second

func main() {
	var (
		name      = flag.String("workload", "", "workload to run: fig4, serve-mix, fleet-sweep or modelcheck (default: all, untraced and traced)")
		seed      = flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
		seconds   = flag.Float64("seconds", 15, "measuring window per run, in seconds")
		traced    = flag.Int("trace", 0, "1 reports per-layer metrics from a traced round, 0 the end-to-end metrics")
		outDir    = flag.String("out", ".bench_build", "directory for scratch files and trace output")
		child     = flag.Bool("child", false, "run the workload in this process and report to the parent")
		setupOnly = flag.Bool("setup-only", false, "with -child: exit once set-up completes")
	)
	flag.Parse()
	if flag.NArg() > 0 || (*traced != 0 && *traced != 1) || *seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	opt := runOpts{
		workload: *name,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		traced:   *traced == 1,
		outDir:   *outDir,
	}
	if *child {
		os.Exit(childMain(opt, *setupOnly))
	}
	if opt.workload != "" {
		if _, err := newWorkload(opt.workload); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
	}
	os.Exit(parentMain(opt))
}

// childMain runs one workload in this process: "ready" on stdout once
// set-up is done, then the report as one JSON line.
func childMain(opt runOpts, setupOnly bool) int {
	out := bufio.NewWriter(os.Stdout)
	rep, err := runWorkload(opt, setupOnly, func() {
		fmt.Fprintln(out, "ready")
		out.Flush()
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if rep != nil {
		b, err := json.Marshal(rep)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		fmt.Fprintf(out, "%s\n", b)
	}
	if err := out.Flush(); err != nil {
		return 1
	}
	return 0
}

// metricValue is one metric in the final JSON line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func parentMain(opt runOpts) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	type job struct {
		workload string
		traced   bool
	}
	var jobs []job
	if opt.workload != "" {
		jobs = []job{{opt.workload, opt.traced}}
	} else {
		for _, w := range workloadNames {
			jobs = append(jobs, job{w, false}, job{w, true})
		}
	}
	res := result{Correct: true, Metrics: make(map[string]metricValue)}
	for _, j := range jobs {
		o := opt
		o.workload, o.traced = j.workload, j.traced
		rep, err := measure(self, o)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		defs := endToEnd
		if o.traced {
			defs = perLayer
		}
		for _, d := range defs {
			if why, ok := rep.Unmeasured[d.Name]; ok {
				fmt.Fprintf(os.Stderr, "%s: note: %s not measured, reported as 0: %s\n", o.workload, d.Name, why)
			}
		}
		for _, e := range rep.Errors {
			fmt.Fprintf(os.Stderr, "%s: FAILED: %s\n", o.workload, e)
		}
		fmt.Printf("%s ops_attempted %d count\n%s ops_failed %d count\n%s error_rate %g ratio\n",
			o.workload, rep.Attempted, o.workload, rep.Failed,
			o.workload, ratio(float64(rep.Failed), float64(rep.Attempted)))
		for _, d := range defs {
			v := rep.Metrics[d.Name] // 0 for a layer the workload never reaches
			fmt.Printf("%s %s %s %s\n", o.workload, d.Name, strconv.FormatFloat(v, 'g', -1, 64), d.Unit)
			key := d.Name
			if opt.workload == "" {
				key = o.workload + "/" + d.Name
			}
			res.Metrics[key] = metricValue{v, d.Unit}
		}
		res.Correct = res.Correct && rep.correct()
		res.Attempted += rep.Attempted
		res.Failed += rep.Failed
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Printf("%s\n", b)
	if !res.Correct {
		return 1
	}
	return 0
}

// measure times set-up over setupSamples set-up-only children (untraced
// runs only), then runs the measuring child and returns its report.
func measure(self string, opt runOpts) (*report, error) {
	var setups []float64
	if !opt.traced {
		for i := 0; i < setupSamples; i++ {
			time.Sleep(setupGap)
			_, ready, err := spawn(self, opt, true)
			if err != nil {
				return nil, err
			}
			setups = append(setups, ready.Seconds())
		}
	}
	rep, _, err := spawn(self, opt, false)
	if err != nil {
		return nil, err
	}
	defs := ownedLayers(opt.workload)
	if !opt.traced {
		rep.Metrics["setup_s"] = median(setups)
		defs = endToEnd
	}
	return rep, rep.finite(defs)
}

// spawn runs one child and returns its report (nil for set-up-only
// children) and how long after launch it reported ready.
func spawn(self string, opt runOpts, setupOnly bool) (*report, time.Duration, error) {
	ctx, cancel := context.WithTimeout(context.Background(), opt.seconds+childTimeout)
	defer cancel()
	trace := "0"
	if opt.traced {
		trace = "1"
	}
	args := []string{"-child",
		"-workload", opt.workload,
		"-seed", strconv.FormatUint(opt.seed, 10),
		"-seconds", strconv.FormatFloat(opt.seconds.Seconds(), 'g', -1, 64),
		"-trace", trace,
		"-out", opt.outDir,
	}
	if setupOnly {
		args = append(args, "-setup-only")
	}
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	var ready time.Duration
	var rep *report
	var parseErr error
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if string(line) == "ready" {
			ready = time.Since(start)
			continue
		}
		rep = &report{}
		parseErr = json.Unmarshal(line, rep)
	}
	scanErr := sc.Err()
	if err := cmd.Wait(); err != nil {
		return nil, 0, fmt.Errorf("%s child: %w", opt.workload, err)
	}
	switch {
	case scanErr != nil:
		return nil, 0, fmt.Errorf("%s child output: %w", opt.workload, scanErr)
	case parseErr != nil:
		return nil, 0, fmt.Errorf("%s child report: %w", opt.workload, parseErr)
	case ready == 0:
		return nil, 0, fmt.Errorf("%s child never reported ready", opt.workload)
	case !setupOnly && rep == nil:
		return nil, 0, errors.New(opt.workload + " child sent no report")
	}
	return rep, ready, nil
}

package bench

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"

	"dstore/internal/core"
	"dstore/internal/obs"
)

// SweepJob names one CCSM-vs-direct-store comparison inside a sweep: a
// benchmark code, an input size and the two configurations to compare.
type SweepJob struct {
	Code string
	In   Input
	// Base is the baseline (normally CCSM) configuration; DS is the
	// configuration whose speedup over Base is reported.
	Base core.Config
	DS   core.Config
}

// StandardJobs returns the full Table II sweep for one input size under
// the default configurations: the Fig. 4 and Fig. 5 job list.
func StandardJobs(in Input) []SweepJob {
	codes := Codes()
	jobs := make([]SweepJob, len(codes))
	for i, code := range codes {
		jobs[i] = SweepJob{
			Code: code, In: in,
			Base: core.DefaultConfig(core.ModeCCSM),
			DS:   core.DefaultConfig(core.ModeDirectStore),
		}
	}
	return jobs
}

// SweepOptions configures a sweep run.
type SweepOptions struct {
	// Workers is the number of benchmarks compared concurrently. Zero or
	// negative means runtime.GOMAXPROCS(0). One runs the jobs strictly
	// sequentially on the calling goroutine, recovering the historical
	// behaviour exactly.
	Workers int
	// Clock, if set, measures host-side phase time for
	// SweepWithTimingsContext (cmd/dstore-bench injects a time.Now-backed
	// clock). Host timing never reaches the simulation, so results are
	// identical with or without it.
	Clock obs.Clock
}

func (o SweepOptions) workers(jobs int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > jobs {
		w = jobs
	}
	if w < 1 {
		w = 1
	}
	return w
}

// JobError records one failed sweep job. Index is the job's position in
// the submitted slice (and therefore in the result slice).
type JobError struct {
	Index int
	Code  string
	In    Input
	Err   error
}

func (e JobError) Error() string {
	return fmt.Sprintf("bench %s (%s): %v", e.Code, e.In, e.Err)
}

func (e JobError) Unwrap() error { return e.Err }

// SweepError aggregates every failure from a sweep in job order. A sweep
// always attempts all jobs: one broken benchmark cannot hide the results
// of the others. The result slice positions named by Failures hold
// whatever partial data the failed comparison produced.
type SweepError struct {
	Failures []JobError
	// Jobs is the number of jobs the sweep was given.
	Jobs int
}

func (e *SweepError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d of %d sweep jobs failed:", len(e.Failures), e.Jobs)
	for _, f := range e.Failures {
		b.WriteString("\n  ")
		b.WriteString(f.Error())
	}
	return b.String()
}

// Unwrap exposes the individual failures to errors.Is/As.
func (e *SweepError) Unwrap() []error {
	errs := make([]error, len(e.Failures))
	for i, f := range e.Failures {
		errs[i] = f
	}
	return errs
}

// FailedIndices returns the set of result-slice positions that failed.
func (e *SweepError) FailedIndices() map[int]bool {
	m := make(map[int]bool, len(e.Failures))
	for _, f := range e.Failures {
		m[f.Index] = true
	}
	return m
}

// SweepWithConfigs runs every job and returns one Comparison per job, in
// job order regardless of completion order. Each job builds its own
// core.System and sim.Engine, so runs are fully independent and results
// are identical whatever the worker count. If any job fails, the error
// is a *SweepError listing every failure; successful entries in the
// result slice are still valid.
func SweepWithConfigs(jobs []SweepJob, opt SweepOptions) ([]Comparison, error) {
	cs, _, err := SweepWithTimingsContext(context.Background(), jobs, opt)
	return cs, err
}

// SweepWithTimingsContext is SweepWithConfigs under a context,
// returning in addition each job's host-side phase breakdown
// (setup/run/report, both runs of the pair summed) as measured by
// opt.Clock. A nil clock reports zeros. On cancellation, in-flight
// comparisons are abandoned mid-simulation and not-yet-started jobs
// are skipped; both are reported in the *SweepError as failures
// carrying ctx's error. The Comparison slice is byte-identical to
// SweepWithConfigs's for any worker count and clock.
func SweepWithTimingsContext(ctx context.Context, jobs []SweepJob, opt SweepOptions) ([]Comparison, []HostPhases, error) {
	results := make([]Comparison, len(jobs))
	timings := make([]HostPhases, len(jobs))
	errs := make([]error, len(jobs))

	runJob := func(i int) {
		if err := ctx.Err(); err != nil {
			errs[i] = err
			return
		}
		results[i], timings[i], errs[i] = compare(ctx, jobs[i], opt.Clock)
	}

	if w := opt.workers(len(jobs)); w == 1 {
		for i := range jobs {
			runJob(i)
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		wg.Add(w)
		for g := 0; g < w; g++ {
			go func() {
				defer wg.Done()
				for i := range idx {
					runJob(i)
				}
			}()
		}
		for i := range jobs {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}

	var sweepErr *SweepError
	for i, err := range errs {
		if err != nil {
			if sweepErr == nil {
				sweepErr = &SweepError{Jobs: len(jobs)}
			}
			sweepErr.Failures = append(sweepErr.Failures,
				JobError{Index: i, Code: jobs[i].Code, In: jobs[i].In, Err: err})
		}
	}
	if sweepErr != nil {
		return results, timings, sweepErr
	}
	return results, timings, nil
}

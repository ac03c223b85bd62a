package bench

import (
	"context"
	"fmt"

	"dstore/internal/core"
	"dstore/internal/obs"
	"dstore/internal/sim"
	"dstore/internal/stats"
)

// Result captures one benchmark run.
type Result struct {
	Code string
	Mode core.Mode
	In   Input
	// Ticks is total execution time (produce + kernels + readback).
	Ticks sim.Tick
	// GPU L2 aggregate demand behaviour (Fig. 5's metric).
	L2Accesses uint64
	L2Misses   uint64
	MissRate   float64
	// Pushes received by the GPU L2 (direct-store installs).
	Pushes uint64
	// Network traffic split.
	XbarBytes   uint64
	DirectBytes uint64
	// PhaseTicks breaks Ticks down: produce, each kernel, readback.
	PhaseTicks []sim.Tick
}

// RunWithConfig executes one benchmark under an explicit configuration.
func RunWithConfig(code string, cfg core.Config, in Input) (Result, error) {
	res, _, _, err := run(context.Background(), code, cfg, in, nil, nil)
	return res, err
}

// HostPhases breaks one run's host-side wall time into the phases a
// -timing report shows: building the system and workload, driving the
// simulation, and assembling the result. Units are whatever the clock
// counts — nanoseconds for the time.Now-backed clock cmd/dstore-bench
// injects. Host timing never feeds back into the simulation, so the
// Result is identical whatever the clock reads.
type HostPhases struct {
	SetupNS  uint64
	RunNS    uint64
	ReportNS uint64
}

// Total returns the summed phase time.
func (h HostPhases) Total() uint64 { return h.SetupNS + h.RunNS + h.ReportNS }

// Add accumulates other into h (for summing a comparison's two runs).
func (h HostPhases) Add(other HostPhases) HostPhases {
	return HostPhases{
		SetupNS:  h.SetupNS + other.SetupNS,
		RunNS:    h.RunNS + other.RunNS,
		ReportNS: h.ReportNS + other.ReportNS,
	}
}

// run is the one body behind every benchmark run. It builds a private
// system and workload, then either resumes from store's snapshot of
// the CPU produce phase or simulates that phase and stores its
// snapshot (store non-nil and PrefixKey eligible), or simply starts at
// phase 0. It runs the remaining phases, checks coherence, seals the
// observer and assembles the Result, which is byte-identical on every
// route. restored reports a resume from a snapshot; a snapshot this
// build cannot restore rebuilds the system and runs cold. clock (nil
// reads zero) times the setup, run and report phases. Cancelling ctx
// abandons the simulation mid-flight and returns ctx's error.
func run(ctx context.Context, code string, cfg core.Config, in Input, store SnapshotStore, clock obs.Clock) (res Result, restored bool, hp HostPhases, err error) {
	if clock == nil {
		clock = func() uint64 { return 0 }
	}
	t0 := clock()
	sys := core.NewSystem(cfg)
	// Nothing reads the machine once the Result is built, so its arrays
	// go back to the free lists for the next run.
	defer func() { sys.Release() }()
	w, err := Build(sys, code, in)
	hp.SetupNS = clock() - t0
	if err != nil {
		return Result{}, false, hp, err
	}

	t1 := clock()
	var per []sim.Tick
	key, eligible := "", false
	if store != nil {
		key, eligible = PrefixKey(code, cfg, in)
	}
	if eligible {
		if blob, ok := store.Get(key); ok {
			if sys.RestoreSnapshot(blob) == nil {
				// The run began at tick 0, so the restored clock is the
				// produce phase's tick count.
				restored, per = true, []sim.Tick{sys.Now()}
			} else {
				// A snapshot this build cannot restore (format or shape
				// drift): discard the half-written system and run cold.
				sys.Release()
				sys = core.NewSystem(cfg)
				if w, err = Build(sys, code, in); err != nil {
					return Result{}, false, hp, err
				}
			}
		}
		if !restored {
			if per, err = w.RunPhaseRangeContext(ctx, sys, 0, 1); err == nil {
				if blob, serr := sys.Snapshot(); serr == nil {
					store.Put(key, blob)
				}
			}
		}
	}
	if err == nil {
		var tail []sim.Tick
		tail, err = w.RunPhaseRangeContext(ctx, sys, len(per), w.Phases())
		per = append(per, tail...)
	}
	hp.RunNS = clock() - t1
	if err != nil {
		return Result{}, false, hp, fmt.Errorf("bench %s (%s, %s): %w", code, cfg.Mode, in, err)
	}

	t2 := clock()
	defer func() { hp.ReportNS = clock() - t2 }()
	if err := sys.CheckCoherence(); err != nil {
		return Result{}, false, hp, fmt.Errorf("bench %s (%s, %s): %w", code, cfg.Mode, in, err)
	}
	// Seal the observer's final sampling window at the run's end tick so
	// time-series exports cover the whole run. A nil observer ignores it.
	cfg.Obs.FinishRun(sys.Now())
	return Result{
		Code: code, Mode: cfg.Mode, In: in,
		Ticks:       sys.Now(),
		PhaseTicks:  per,
		L2Accesses:  sys.GPUL2Accesses(),
		L2Misses:    sys.GPUL2Misses(),
		MissRate:    sys.GPUL2MissRate(),
		Pushes:      sys.PushesReceived(),
		XbarBytes:   sys.CoherenceTrafficBytes(),
		DirectBytes: sys.DirectTrafficBytes(),
	}, restored, hp, nil
}

// Comparison holds a CCSM-vs-direct-store pair for one benchmark and
// input.
type Comparison struct {
	Code string
	In   Input
	CCSM Result
	DS   Result
}

// Speedup returns direct store's speedup over CCSM: the paper
// normalises direct store's total ticks to CCSM's (Fig. 4), so 0.05
// means 5% faster.
func (c Comparison) Speedup() float64 {
	if c.DS.Ticks == 0 {
		return 0
	}
	return float64(c.CCSM.Ticks)/float64(c.DS.Ticks) - 1
}

// MissRateDelta returns CCSM miss rate minus DS miss rate (positive =
// reduction under direct store).
func (c Comparison) MissRateDelta() float64 {
	return c.CCSM.MissRate - c.DS.MissRate
}

// Compare runs one benchmark under the default CCSM and direct-store
// configurations.
func Compare(code string, in Input) (Comparison, error) {
	c, _, err := compare(context.Background(), SweepJob{
		Code: code, In: in,
		Base: core.DefaultConfig(core.ModeCCSM),
		DS:   core.DefaultConfig(core.ModeDirectStore),
	}, nil)
	return c, err
}

// compare runs one sweep job's two configurations (baseline first),
// summing their host phases.
func compare(ctx context.Context, job SweepJob, clock obs.Clock) (Comparison, HostPhases, error) {
	c := Comparison{Code: job.Code, In: job.In}
	var hp, h HostPhases
	var err error
	c.CCSM, _, hp, err = run(ctx, job.Code, job.Base, job.In, nil, clock)
	if err == nil {
		c.DS, _, h, err = run(ctx, job.Code, job.DS, job.In, nil, clock)
		hp = hp.Add(h)
	}
	return c, hp, err
}

// speedupThreshold is the rounding floor below which the paper plots a
// benchmark as "zero percent speedup".
const speedupThreshold = 0.005

// GeomeanSpeedup returns the geometric mean of the non-zero speedups
// (the rightmost bar of Fig. 4): benchmarks whose speedup rounds to
// zero are excluded, matching the paper's method.
func GeomeanSpeedup(cs []Comparison) float64 {
	var ratios []float64
	for _, c := range cs {
		if s := c.Speedup(); s >= speedupThreshold {
			ratios = append(ratios, 1+s)
		}
	}
	m, ok := stats.GeoMeanNonZero(ratios)
	if !ok {
		return 0
	}
	return m - 1
}

// GeomeanMissRates returns the geometric means of the non-zero GPU L2
// miss rates under CCSM and direct store (the rightmost bars of
// Fig. 5).
func GeomeanMissRates(cs []Comparison) (ccsm, ds float64) {
	var a, b []float64
	for _, c := range cs {
		a = append(a, c.CCSM.MissRate)
		b = append(b, c.DS.MissRate)
	}
	ccsm, _ = stats.GeoMeanNonZero(a)
	ds, _ = stats.GeoMeanNonZero(b)
	return ccsm, ds
}

// Fig4Table renders the Fig. 4 speedup series for one input size.
func Fig4Table(in Input, cs []Comparison) *stats.Table {
	t := stats.NewTable("Benchmark", "CCSM ticks", "DS ticks", "Speedup")
	for _, c := range cs {
		t.AddRow(c.Code,
			fmt.Sprintf("%d", c.CCSM.Ticks),
			fmt.Sprintf("%d", c.DS.Ticks),
			stats.Percent(c.Speedup()))
	}
	t.AddRow("GEOMEAN(nonzero)", "", "", stats.Percent(GeomeanSpeedup(cs)))
	return t
}

// Fig5Table renders the Fig. 5 GPU L2 miss-rate series for one input
// size.
func Fig5Table(in Input, cs []Comparison) *stats.Table {
	t := stats.NewTable("Benchmark", "CCSM accesses", "CCSM miss rate", "DS accesses", "DS miss rate")
	for _, c := range cs {
		t.AddRow(c.Code,
			fmt.Sprintf("%d", c.CCSM.L2Accesses),
			stats.Percent(c.CCSM.MissRate),
			fmt.Sprintf("%d", c.DS.L2Accesses),
			stats.Percent(c.DS.MissRate))
	}
	gm1, gm2 := GeomeanMissRates(cs)
	t.AddRow("GEOMEAN", "", stats.Percent(gm1), "", stats.Percent(gm2))
	return t
}

// Table2 renders the paper's benchmark table.
func Table2() *stats.Table {
	t := stats.NewTable("Name", "Small input", "Big input", "Suite", "Shared")
	for _, p := range profiles {
		sh := "No"
		if p.shared {
			sh = "Yes"
		}
		t.AddRow(p.code, p.small, p.big, p.suite, sh)
	}
	return t
}

package chaos

import (
	"fmt"
	"strings"

	"dstore/internal/coherence"
	"dstore/internal/core"
	"dstore/internal/gpu"
	"dstore/internal/memsys"
	"dstore/internal/sim"
)

// StressConfig drives one randomized coherence stress run: N logical
// agents issue randomized load/store/kernel-launch streams against a
// data-value oracle, under the faults of Profile, with invariant checks
// at every quiescent point.
type StressConfig struct {
	Seed uint64
	// Ops is the approximate total number of checked agent operations
	// (split evenly across rounds and agents). Default 2000.
	Ops int
	// Rounds is the number of quiescent points. Default 10.
	Rounds int
	// Agents is the number of logical agents; agent 0 drives the CPU
	// controller, the rest drive GPU L2 slice controllers. Default 4.
	Agents int
	// Lines is the size of the shared working set in cache lines (per
	// region: heap, and direct-store in direct modes). Default 256 —
	// deliberately larger than the stress system's shrunken caches so
	// evictions, writebacks and push overflows all happen.
	Lines int
	// Mode selects the coherence regime under test.
	Mode core.Mode
	// Profile is the fault schedule.
	Profile Profile
	// Kernels launches an occasional real GPU kernel alongside the
	// checked agents for cross-layer traffic (L1 flash-invalidates,
	// warp-issued loads/stores). Default on when Ops is defaulted.
	Kernels bool
}

func (c StressConfig) withDefaults() StressConfig {
	if c.Ops == 0 {
		c.Ops = 2000
		c.Kernels = true
	}
	if c.Rounds == 0 {
		c.Rounds = 10
	}
	if c.Agents == 0 {
		c.Agents = 4
	}
	if c.Agents < 2 {
		c.Agents = 2 // agent 0 is CPU-side; at least one GPU agent
	}
	if c.Lines == 0 {
		c.Lines = 256
	}
	return c
}

// StressResult is the outcome of one stress run. Transcript is
// deterministic: the same (seed, profile, config) produces the same
// bytes on every run.
type StressResult struct {
	Seed           uint64
	Transcript     string
	Violations     []string
	Ops            int
	Ticks          sim.Tick
	FaultsInjected uint64
	Nacks          uint64
	Retries        uint64
}

// Failed reports whether the run detected violations.
func (r *StressResult) Failed() bool { return len(r.Violations) > 0 }

// stressSystemConfig shrinks the Table I machine so the working set
// overwhelms the caches: evictions, writebacks, MSHR pressure and push
// overflows all occur within a few thousand operations.
func stressSystemConfig(mode core.Mode, chaos *core.ChaosConfig) core.Config {
	cfg := core.DefaultConfig(mode)
	cfg.CPUL1DBytes = 4 * 1024
	cfg.CPUL2Bytes = 32 * 1024
	cfg.CPUMSHRs = 4
	cfg.GPUL1Bytes = 4 * 1024
	cfg.GPUL2Bytes = 32 * 1024 // 8KB per slice = 64 lines
	cfg.SliceMSHRs = 4
	cfg.SMs = 4
	cfg.MaxWarpsPerSM = 4
	cfg.StallGuardEvents = 2_000_000
	cfg.Chaos = chaos
	return cfg
}

// stressRun is the live state of one run.
type stressRun struct {
	cfg  StressConfig
	plan *FaultPlan
	sys  *core.System

	// Per-agent op-stream PRNGs (agent i draws only from rngs[i], so an
	// agent's decisions depend only on the seed and its own completion
	// order).
	rngs []*sim.Rand

	heapPA   []memsys.Addr
	directPA []memsys.Addr
	kernelPA []memsys.Addr
	heapVA   memsys.Addr
	directVA memsys.Addr
	kernelVA memsys.Addr

	// Oracle state. committed* hold each line's version as of the last
	// quiescent point; *Hist hold the versions written this round (in
	// issue order — single writer per line per round makes them
	// monotone). A load must observe the committed version or one of
	// this round's writes.
	committedHeap []uint64
	committedDir  []uint64
	heapHist      [][]uint64
	dirHist       [][]uint64
	// heapOwner[i] is the agent allowed to write heap line i this round.
	heapOwner []int

	round       int
	opsIssued   int
	outstanding int
	violations  []string
	transcript  strings.Builder
	aborted     bool
}

// RunStress executes one stress run. The returned result always carries
// the transcript; err is non-nil when the run detected violations (or
// could not be set up), with the first violation in the message.
func RunStress(cfg StressConfig) (*StressResult, error) {
	cfg = cfg.withDefaults()
	r := &stressRun{cfg: cfg, plan: NewFaultPlan(cfg.Seed, cfg.Profile)}
	r.sys = core.NewSystem(stressSystemConfig(cfg.Mode, r.plan.Config(func(err error) {
		r.violate("protocol failure: %v", err)
	})))
	for i := 0; i < cfg.Agents; i++ {
		r.rngs = append(r.rngs, sim.NewRand(cfg.Seed^(0x9e3779b97f4a7c15*uint64(i+1))))
	}
	if err := r.setup(); err != nil {
		return nil, err
	}
	r.header()
	for r.round = 0; r.round < cfg.Rounds && !r.aborted; r.round++ {
		r.runRound()
	}
	res := r.finish()
	if res.Failed() {
		return res, fmt.Errorf("chaos: stress run seed=%d profile=%s: %d violation(s), first: %s",
			cfg.Seed, cfg.Profile.Name, len(res.Violations), res.Violations[0])
	}
	return res, nil
}

// setup allocates and pre-maps the working set. Agents drive the
// coherence controllers with physical addresses directly (the TLBs are
// exercised by the kernel launches).
func (r *stressRun) setup() error {
	mapLines := func(base memsys.Addr, n int) ([]memsys.Addr, error) {
		pas := make([]memsys.Addr, n)
		for i := 0; i < n; i++ {
			va := base + memsys.Addr(i)*memsys.LineSize
			pa, err := r.sys.PT.EnsureMapped(va)
			if err != nil {
				return nil, err
			}
			pas[i] = memsys.LineAlign(pa)
		}
		return pas, nil
	}
	size := uint64(r.cfg.Lines) * memsys.LineSize
	var err error
	if r.heapVA, err = r.sys.AllocPrivate(size, "stress.heap"); err != nil {
		return err
	}
	if r.heapPA, err = mapLines(r.heapVA, r.cfg.Lines); err != nil {
		return err
	}
	if r.cfg.Mode.DirectStoreEnabled() {
		if r.directVA, err = r.sys.Space.AllocDirect(size, "stress.direct"); err != nil {
			return err
		}
		if r.directPA, err = mapLines(r.directVA, r.cfg.Lines); err != nil {
			return err
		}
	}
	if r.cfg.Kernels {
		kLines := 64
		if r.kernelVA, err = r.sys.AllocPrivate(uint64(kLines)*memsys.LineSize, "stress.kernel"); err != nil {
			return err
		}
		if r.kernelPA, err = mapLines(r.kernelVA, kLines); err != nil {
			return err
		}
	}
	r.committedHeap = make([]uint64, r.cfg.Lines)
	r.committedDir = make([]uint64, len(r.directPA))
	r.heapHist = make([][]uint64, r.cfg.Lines)
	r.dirHist = make([][]uint64, len(r.directPA))
	r.heapOwner = make([]int, r.cfg.Lines)
	return nil
}

// heapWriters returns the agent ids allowed to write shared heap lines.
// In standalone mode the CPU must stay off them entirely: §III-H removes
// CPU↔GPU cross-probes, so CPU-cached shared data would be incoherent
// by construction.
func (r *stressRun) heapWriters() []int {
	first := 0
	if r.cfg.Mode == core.ModeStandalone {
		first = 1
	}
	ids := make([]int, 0, r.cfg.Agents-first)
	for i := first; i < r.cfg.Agents; i++ {
		ids = append(ids, i)
	}
	return ids
}

func (r *stressRun) ctrls() []*coherence.Ctrl {
	return append([]*coherence.Ctrl{r.sys.CPUCtrl}, r.sys.Slices...)
}

func (r *stressRun) violate(format string, args ...any) {
	v := fmt.Sprintf(format, args...)
	r.violations = append(r.violations, v)
	fmt.Fprintf(&r.transcript, "VIOLATION round %d: %s\n", r.round, v)
}

func (r *stressRun) header() {
	fmt.Fprintf(&r.transcript, "stress seed=%d profile=%s mode=%s agents=%d lines=%d rounds=%d resilient=%v\n",
		r.cfg.Seed, r.cfg.Profile.Name, r.cfg.Mode, r.cfg.Agents, r.cfg.Lines, r.cfg.Rounds,
		r.cfg.Profile.needsResilience())
}

// runRound issues one round of closed-loop agent traffic, drains the
// system, and checks the oracle and protocol invariants at the
// resulting quiescent point.
func (r *stressRun) runRound() {
	writers := r.heapWriters()
	for i := range r.heapOwner {
		r.heapOwner[i] = writers[(i+r.round)%len(writers)]
	}
	perAgent := r.cfg.Ops / (r.cfg.Rounds * r.cfg.Agents)
	if perAgent < 1 {
		perAgent = 1
	}
	for id := 0; id < r.cfg.Agents; id++ {
		id := id
		// Stagger starts so agents do not lockstep on the same tick.
		r.sys.Engine.Schedule(sim.Tick(id), func() { r.agentLoop(id, perAgent) })
	}
	kernel := r.cfg.Kernels && r.rngs[0].Bool(0.4)
	if kernel {
		r.launchKernel()
	}
	if err := r.drain(); err != nil {
		r.violate("engine panic: %v", err)
		r.aborted = true
		return
	}
	if r.outstanding != 0 {
		r.violate("%d agent operations never completed (stuck run)\n%s",
			r.outstanding, r.sys.Mem.TransactionDump())
		r.aborted = true
		return
	}
	r.checkQuiescent()
	nacks, retries := r.pushCounts()
	fmt.Fprintf(&r.transcript, "round %2d: ops=%d kernel=%v tick=%d faults=%d nacks=%d retries=%d\n",
		r.round, perAgent*r.cfg.Agents, kernel, r.sys.Now(), r.plan.Counters().FaultsInjected, nacks, retries)
}

// drain runs the engine to quiescence, converting panics (the engine's
// forward-progress guard, protocol assertions) into an error instead of
// killing the process.
func (r *stressRun) drain() (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%v", p)
		}
	}()
	r.sys.Engine.Run()
	return nil
}

// agentLoop issues the agent's next operation; the completion callback
// re-enters the loop, so each agent is a closed-loop requester.
func (r *stressRun) agentLoop(id, remaining int) {
	if remaining == 0 || r.aborted {
		return
	}
	r.issueOne(id, func() { r.agentLoop(id, remaining-1) })
}

func (r *stressRun) issueOne(id int, cont func()) {
	rng := r.rngs[id]
	direct := len(r.directPA) > 0
	cpuAgent := id == 0
	switch {
	case cpuAgent && r.cfg.Mode == core.ModeStandalone:
		r.issueDirectOp(id, cont)
	case cpuAgent && direct && rng.Bool(0.5):
		r.issueDirectOp(id, cont)
	case !cpuAgent && direct && rng.Bool(0.25):
		r.issueDirectLoad(id, cont)
	default:
		r.issueHeapOp(id, cont)
	}
}

// issueHeapOp performs a cacheable load or store on a shared heap line
// through the agent's controller (CPU controller for agent 0, the
// owning GPU L2 slice otherwise).
func (r *stressRun) issueHeapOp(id int, cont func()) {
	rng := r.rngs[id]
	idx := rng.Intn(len(r.heapPA))
	pa := r.heapPA[idx]
	ctrl := r.sys.CPUCtrl
	if id != 0 {
		ctrl = r.sys.Slices[memsys.SliceFor(pa, r.sys.Cfg.GPUL2Slices)]
	}
	store := r.heapOwner[idx] == id && rng.Bool(0.5)
	r.opsIssued++
	r.outstanding++
	if store {
		ver := r.sys.Vers.Next()
		r.heapHist[idx] = append(r.heapHist[idx], ver)
		req := &memsys.Request{Type: memsys.Store, Addr: pa, Size: memsys.LineSize, Ver: ver}
		req.Done = func(sim.Tick) {
			r.outstanding--
			cont()
		}
		ctrl.Access(req)
		return
	}
	req := &memsys.Request{Type: memsys.Load, Addr: pa, Size: memsys.LineSize}
	req.Done = func(sim.Tick) {
		r.outstanding--
		r.checkLoad("heap", idx, req.Ver, r.committedHeap, r.heapHist)
		cont()
	}
	ctrl.Access(req)
}

// issueDirectOp is the CPU agent's traffic on the direct-store region:
// a RemoteStore pushed to the owning GPU L2 slice, or an uncacheable
// RemoteLoad reading it back. In standalone mode (§III-H) the CPU is a
// pure producer: there are no cross-probes, so a RemoteLoad reads DRAM
// without snooping the GPU L2 and would legitimately observe data older
// than the pushed copy — readback there is the GPU agents' job.
func (r *stressRun) issueDirectOp(id int, cont func()) {
	rng := r.rngs[id]
	idx := rng.Intn(len(r.directPA))
	pa := r.directPA[idx]
	r.opsIssued++
	r.outstanding++
	if r.cfg.Mode == core.ModeStandalone || rng.Bool(0.6) {
		ver := r.sys.Vers.Next()
		r.dirHist[idx] = append(r.dirHist[idx], ver)
		req := &memsys.Request{Type: memsys.RemoteStore, Addr: pa, Size: memsys.LineSize, Ver: ver}
		req.Done = func(sim.Tick) {
			r.outstanding--
			cont()
		}
		r.sys.CPUCtrl.Access(req)
		return
	}
	req := &memsys.Request{Type: memsys.Load, Addr: pa, Size: memsys.LineSize}
	req.Done = func(sim.Tick) {
		r.outstanding--
		r.checkLoad("direct", idx, req.Ver, r.committedDir, r.dirHist)
		cont()
	}
	r.sys.CPUCtrl.RemoteLoad(req)
}

// issueDirectLoad is a GPU agent reading a direct-store line through
// its owning slice (the consumer side of the push).
func (r *stressRun) issueDirectLoad(id int, cont func()) {
	rng := r.rngs[id]
	idx := rng.Intn(len(r.directPA))
	pa := r.directPA[idx]
	r.opsIssued++
	r.outstanding++
	req := &memsys.Request{Type: memsys.Load, Addr: pa, Size: memsys.LineSize}
	req.Done = func(sim.Tick) {
		r.outstanding--
		r.checkLoad("direct", idx, req.Ver, r.committedDir, r.dirHist)
		cont()
	}
	r.sys.Slices[memsys.SliceFor(pa, r.sys.Cfg.GPUL2Slices)].Access(req)
}

// checkLoad validates an observed load version against the oracle: it
// must be the committed version from the last quiescent point or one of
// this round's writes to the line. Anything else is lost, stale beyond
// a round boundary, or fabricated data — a protocol bug.
func (r *stressRun) checkLoad(region string, idx int, observed uint64, committed []uint64, hist [][]uint64) {
	if observed == committed[idx] {
		return
	}
	for _, v := range hist[idx] {
		if v == observed {
			return
		}
	}
	r.violate("%s line %d: load observed version %d; expected %d or one of %d writes this round",
		region, idx, observed, committed[idx], len(hist[idx]))
}

// launchKernel fires a small real GPU kernel: warps load from the
// shared working set (direct region when present, heap otherwise) and
// store into a private kernel buffer. Kernel-written lines are excluded
// from the version oracle (their versions come from warp-interleaved
// stores) but still participate in invariant checks.
func (r *stressRun) launchKernel() {
	loadBase := r.heapVA
	if len(r.directPA) > 0 {
		loadBase = r.directVA
	}
	var warps []gpu.Warp
	for w := 0; w < 8; w++ {
		warps = append(warps, gpu.Warp{Ops: []gpu.WarpOp{
			{Kind: gpu.OpGlobalLoad, Addr: loadBase + memsys.Addr(w*4)*memsys.LineSize, Lines: 4},
			{Kind: gpu.OpCompute, Gap: 16},
			{Kind: gpu.OpGlobalStore, Addr: r.kernelVA + memsys.Addr(w*8)*memsys.LineSize, Lines: 8},
		}})
	}
	r.sys.GPU.Launch(gpu.Kernel{Name: fmt.Sprintf("stress-r%d", r.round), Warps: warps}, nil)
}

// checkQuiescent runs the full verification at a drained point: MOESI
// invariants over every line in play, all-copies-agree data
// consistency, and the oracle's expected memory image.
func (r *stressRun) checkQuiescent() {
	var all []memsys.Addr
	all = append(all, r.heapPA...)
	all = append(all, r.directPA...)
	all = append(all, r.kernelPA...)
	if err := r.sys.Mem.CheckInvariants(all); err != nil {
		r.violate("invariant: %v", err)
	}
	for _, pa := range all {
		r.checkConsistent(pa)
	}
	r.commitRegion("heap", r.heapPA, r.committedHeap, r.heapHist)
	if len(r.directPA) > 0 {
		r.commitRegion("direct", r.directPA, r.committedDir, r.dirHist)
	}
}

// authoritative returns the line's current version: the owner's copy if
// any cache owns it, memory otherwise.
func (r *stressRun) authoritative(pa memsys.Addr) uint64 {
	for _, c := range r.ctrls() {
		switch c.State(pa) {
		case coherence.MM, coherence.M, coherence.O:
			return c.Ver(pa)
		}
	}
	return r.sys.Mem.MemVer(pa)
}

// checkConsistent verifies every cached copy of a line agrees with the
// authoritative version — at a quiescent point all copies hold the same
// data, so any divergence (e.g. a survivor of a skipped invalidation)
// is a coherence violation even before anyone loads it.
func (r *stressRun) checkConsistent(pa memsys.Addr) {
	auth := r.authoritative(pa)
	for _, c := range r.ctrls() {
		if st := c.State(pa); st != coherence.I {
			if v := c.Ver(pa); v != auth {
				r.violate("line %#x: %s holds version %d in %s, authoritative is %d",
					uint64(pa), c.Name(), v, coherence.StateName(st), auth)
			}
		}
	}
}

// commitRegion checks each line's authoritative version against the
// oracle's expectation — the last write of the round for written lines,
// the previous committed version for untouched ones — then advances the
// committed image.
func (r *stressRun) commitRegion(region string, pas []memsys.Addr, committed []uint64, hist [][]uint64) {
	for i, pa := range pas {
		auth := r.authoritative(pa)
		if n := len(hist[i]); n > 0 {
			if want := hist[i][n-1]; auth != want {
				r.violate("%s line %d: committed version %d after %d writes, want %d (last write lost)",
					region, i, auth, n, want)
			}
		} else if auth != committed[i] {
			r.violate("%s line %d: version changed %d -> %d with no writes this round",
				region, i, committed[i], auth)
		}
		committed[i] = auth
		hist[i] = hist[i][:0]
	}
}

// pushCounts sums the controllers' push NACK and retry counters.
func (r *stressRun) pushCounts() (nacks, retries uint64) {
	for _, c := range r.ctrls() {
		nacks += c.Counters().PushNacks
		retries += c.Counters().PushRetries
	}
	return nacks, retries
}

func (r *stressRun) finish() *StressResult {
	nacks, retries := r.pushCounts()
	res := &StressResult{
		Seed:           r.cfg.Seed,
		Violations:     r.violations,
		Ops:            r.opsIssued,
		Ticks:          r.sys.Now(),
		FaultsInjected: r.plan.Counters().FaultsInjected,
		Nacks:          nacks,
		Retries:        retries,
	}
	fmt.Fprintf(&r.transcript, "final: ops=%d ticks=%d faults=%d nacks=%d retries=%d pushes=%d violations=%d\n",
		res.Ops, res.Ticks, res.FaultsInjected, res.Nacks, res.Retries,
		r.sys.PushesReceived(), len(res.Violations))
	res.Transcript = r.transcript.String()
	return res
}

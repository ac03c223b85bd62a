// Package core assembles the paper's full system: the Table I
// integrated CPU-GPU platform with MOESI-Hammer coherence, and the
// direct-store extension on top — reserved high-order allocation, TLB
// detection, the dedicated CPU→GPU-L2 network, and the PUTX install
// path. It exposes the System type the benchmarks, examples and the
// figure-regeneration harness drive.
package core

import (
	"context"
	"fmt"
	"strings"

	"dstore/internal/cache"
	"dstore/internal/coherence"
	"dstore/internal/cpu"
	"dstore/internal/dram"
	"dstore/internal/gpu"
	"dstore/internal/interconnect"
	"dstore/internal/memalloc"
	"dstore/internal/memsys"
	"dstore/internal/mmu"
	"dstore/internal/obs"
	"dstore/internal/sim"
	"dstore/internal/stats"
)

// Mode selects the coherence regime.
type Mode int

const (
	// ModeCCSM is the baseline: cache-coherent shared memory over the
	// Hammer protocol; shared data allocated on the ordinary heap.
	ModeCCSM Mode = iota
	// ModeDirectStore is the paper's proposal co-existing with CCSM
	// (§III): kernel-referenced data moves to the reserved region, CPU
	// stores to it are pushed to the GPU L2.
	ModeDirectStore
	// ModeStandalone is §III-H: direct store replaces CPU-GPU CCSM
	// entirely. The ordering point no longer cross-probes between CPU
	// and GPU — shared data lives only in the GPU L2 by construction.
	ModeStandalone
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeCCSM:
		return "ccsm"
	case ModeDirectStore:
		return "direct-store"
	case ModeStandalone:
		return "standalone"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// DirectStoreEnabled reports whether the mode uses the push path.
func (m Mode) DirectStoreEnabled() bool { return m != ModeCCSM }

// Config is the full-system configuration. DefaultConfig returns the
// paper's Table I values.
type Config struct {
	Mode Mode

	// CPU side (Table I: 1 core; 64KB/2-way L1D; 32KB/2-way L1I; 2MB/8-way L2).
	CPUL1DBytes int
	CPUL1DWays  int
	CPUL1IBytes int
	CPUL1IWays  int
	CPUL2Bytes  int
	CPUL2Ways   int
	CPUMSHRs    int
	StoreBuffer int

	// GPU side (Table I: 16 SMs, 32 lanes @1.4GHz; 16KB/4-way L1 +48KB
	// shared memory; 2MB/16-way L2 in 4 slices).
	SMs           int
	MaxWarpsPerSM int
	GPUL1Bytes    int
	GPUL1Ways     int
	GPUL2Bytes    int
	GPUL2Ways     int
	GPUL2Slices   int
	GPUMSHRsPerSM int
	SliceMSHRs    int

	// Memory (Table I: 2GB, 1 channel, 2 ranks, 8 banks @1GHz).
	DRAM     dram.Config
	MemBytes uint64

	// Latencies in CPU ticks.
	CPUL1Lat   sim.Tick
	CPUL2Lat   sim.Tick
	GPUL1Lat   sim.Tick
	SharedLat  sim.Tick
	SliceLat   sim.Tick
	XbarLat    sim.Tick
	XbarBW     int // bytes/tick per port
	DirectLat  sim.Tick
	DirectBW   int
	TLBWalkLat sim.Tick
	CPUTLBSize int
	GPUTLBSize int

	// DirectGetx models §III-F's GETX-before-PUTX control flit.
	DirectGetx bool
	// Prefetch enables a next-line GPU L2 prefetcher on demand misses
	// (the pull-based alternative the paper compares against in §IV).
	PrefetchDepth int
	// DirectOverXbar is the §III-G ablation: pushes ride the shared
	// crossbar instead of the dedicated network.
	DirectOverXbar bool
	// PushWriteThrough is the §III-F ablation: pushes install
	// exclusive-clean and write through to memory instead of MM.
	PushWriteThrough bool
	// NoC selects the coherence-network topology: "xbar" (default) or
	// "ring" (a bidirectional ring cpu — slices — mem, the floorplan
	// many real LLC interconnects use).
	NoC string
	// GPUL2Policy selects the slice replacement policy: "lru"
	// (default), "plru", "random" or "srrip" (scan-resistant).
	GPUL2Policy cache.PolicyKind
	// RegionDirectory enables the HSC-style probe filter (Power et
	// al., MICRO 2013 — the paper's reference [2]) at the memory
	// controller: requests to regions private to the requester skip
	// the broadcast probes. A stronger conventional baseline for the
	// paper's comparison.
	RegionDirectory bool
	// RegionShift is the region granularity (2^shift bytes; default 12
	// = 4KB) when RegionDirectory is on.
	RegionShift uint
	// StallGuardEvents arms the engine's forward-progress watchdog:
	// executing more than this many events without the clock advancing
	// panics with a livelock diagnosis. Zero (default) disables the
	// guard and leaves the engine untouched.
	StallGuardEvents uint64
	// Chaos wires deterministic fault injection (internal/chaos) into
	// the machine. Nil — the default, and the only value benchmarks
	// ever see — leaves every component byte-identical to the
	// fault-free build.
	Chaos *ChaosConfig `json:"-"`
	// Obs attaches the observability layer (internal/obs): tracing,
	// latency histograms, interval time series. Nil — the default —
	// leaves every hot path with at most a never-taken predictable
	// branch, and simulation Results are byte-identical either way.
	Obs *obs.Observer `json:"-"`
}

// ChaosConfig is the set of fault-injection attachment points NewSystem
// honours. The concrete fault implementations live in internal/chaos;
// core only knows where they plug in, which keeps the dependency
// pointing chaos → core. Every field is optional.
type ChaosConfig struct {
	// WrapNet wraps the coherence network (delay jitter). The engine is
	// supplied so wrappers can schedule delayed deliveries.
	WrapNet func(*sim.Engine, interconnect.Network) interconnect.Network
	// WrapDirect wraps the dedicated push link (drop/duplicate/jitter).
	WrapDirect func(*sim.Engine, interconnect.DirectPort) interconnect.DirectPort
	// Hooks installs controller-side faults (stalls, push NACKs, the
	// skip-invalidate mutation) on every cache controller.
	Hooks *coherence.ChaosHooks
	// Resilience switches the direct-store push to the ack/NACK +
	// bounded-retry protocol on every controller.
	Resilience bool
	// OnFailure receives fatal protocol failures (push retry
	// exhaustion, stuck transactions) instead of a panic.
	OnFailure func(error)
}

// The chaos watchdog's scan period and stuck-transaction limit. The
// limit is far beyond any legitimate transaction latency (even queued
// behind a hot line under heavy stalls), so it only fires on genuine
// loss of progress.
const (
	watchdogInterval sim.Tick = 1 << 16
	watchdogLimit    sim.Tick = 1 << 20
)

// DefaultConfig returns the Table I system in the given mode.
func DefaultConfig(mode Mode) Config {
	d := dram.DefaultConfig()
	// Balance the DRAM burst bandwidth with the crossbar port width so
	// DRAM-sourced and cache-to-cache transfers sustain comparable
	// streaming rates (the paper's single-channel memory keeps up with
	// its coherence network).
	d.TBurst = 4
	return Config{
		Mode:        mode,
		CPUL1DBytes: 64 * 1024, CPUL1DWays: 2,
		CPUL1IBytes: 32 * 1024, CPUL1IWays: 2,
		CPUL2Bytes: 2 * 1024 * 1024, CPUL2Ways: 8,
		CPUMSHRs: 16, StoreBuffer: 32,
		SMs: 16, MaxWarpsPerSM: 24,
		GPUL1Bytes: 16 * 1024, GPUL1Ways: 4,
		GPUL2Bytes: 2 * 1024 * 1024, GPUL2Ways: 16, GPUL2Slices: 4,
		GPUMSHRsPerSM: 8, SliceMSHRs: 32,
		DRAM:     d,
		MemBytes: 2 * 1024 * 1024 * 1024,
		CPUL1Lat: 4, CPUL2Lat: 12,
		GPUL1Lat: 20, SharedLat: 8, SliceLat: 16,
		XbarLat: 16, XbarBW: 32,
		DirectLat: 20, DirectBW: 32,
		TLBWalkLat: 40, CPUTLBSize: 64, GPUTLBSize: 256,
		DirectGetx: true,
	}
}

// Validate checks a configuration for structural errors before a
// System is built (NewSystem panics on them; Validate lets callers
// report instead).
func (c Config) Validate() error {
	check := func(ok bool, msg string, args ...any) error {
		if !ok {
			return fmt.Errorf("core: "+msg, args...)
		}
		return nil
	}
	pow2 := func(n int) bool { return n > 0 && n&(n-1) == 0 }
	sets := func(bytes, ways int) int {
		if ways <= 0 {
			return 0
		}
		return bytes / (ways * memsys.LineSize)
	}
	sliceBytes := 0
	if pow2(c.GPUL2Slices) {
		sliceBytes = c.GPUL2Bytes / c.GPUL2Slices
	}
	for _, e := range []error{
		check(c.CPUL1DBytes > 0 && c.CPUL1DWays > 0, "CPU L1D geometry %d/%d", c.CPUL1DBytes, c.CPUL1DWays),
		check(c.CPUL2Bytes > 0 && c.CPUL2Ways > 0, "CPU L2 geometry %d/%d", c.CPUL2Bytes, c.CPUL2Ways),
		check(c.SMs > 0, "SM count %d", c.SMs),
		check(c.MaxWarpsPerSM > 0, "warps per SM %d", c.MaxWarpsPerSM),
		check(pow2(c.GPUL2Slices), "GPU L2 slice count %d must be a power of two", c.GPUL2Slices),
		check(sliceBytes == 0 || c.GPUL2Bytes%c.GPUL2Slices == 0, "GPU L2 %dB not divisible into %d slices", c.GPUL2Bytes, c.GPUL2Slices),
		check(pow2(sets(c.CPUL1DBytes, c.CPUL1DWays)), "CPU L1D set count %d must be a power of two", sets(c.CPUL1DBytes, c.CPUL1DWays)),
		check(pow2(sets(c.CPUL2Bytes, c.CPUL2Ways)), "CPU L2 set count %d must be a power of two", sets(c.CPUL2Bytes, c.CPUL2Ways)),
		check(pow2(sets(c.GPUL1Bytes, c.GPUL1Ways)), "GPU L1 set count %d must be a power of two", sets(c.GPUL1Bytes, c.GPUL1Ways)),
		check(sliceBytes == 0 || pow2(sets(sliceBytes, c.GPUL2Ways)), "GPU L2 slice set count %d must be a power of two", sets(sliceBytes, c.GPUL2Ways)),
		check(c.CPUMSHRs > 0 && c.SliceMSHRs > 0 && c.GPUMSHRsPerSM > 0, "MSHR counts must be positive"),
		check(c.StoreBuffer > 0, "store buffer %d", c.StoreBuffer),
		check(c.MemBytes >= 1<<20, "memory %dB too small", c.MemBytes),
		check(c.CPUTLBSize > 0 && c.GPUTLBSize > 0, "TLB sizes must be positive"),
		check(c.NoC == "" || c.NoC == "xbar" || c.NoC == "ring", "unknown NoC %q", c.NoC),
		check(c.Mode == ModeCCSM || c.Mode == ModeDirectStore || c.Mode == ModeStandalone, "unknown mode %d", int(c.Mode)),
	} {
		if e != nil {
			return e
		}
	}
	return nil
}

// System is an assembled simulated machine.
type System struct {
	Cfg    Config
	Engine *sim.Engine
	Space  *memalloc.Space
	PT     *mmu.PageTable
	Vers   *cpu.VersionSource

	Core    *cpu.Core
	GPU     *gpu.GPU
	CPUCtrl *coherence.Ctrl
	Slices  []*coherence.Ctrl
	Mem     *coherence.MemCtrl
	// Net is the coherence network (crossbar or ring per Config.NoC).
	Net    interconnect.Network
	Direct *interconnect.Link
	DRAM   *dram.DRAM

	ctr Counters
}

// NewSystem builds a machine from cfg.
func NewSystem(cfg Config) *System {
	engine := sim.NewEngine()
	s := &System{
		Cfg:    cfg,
		Engine: engine,
		Space:  memalloc.NewSpace(),
		PT:     mmu.NewPageTable(cfg.MemBytes),
		Vers:   &cpu.VersionSource{},
	}
	if cfg.StallGuardEvents != 0 {
		engine.SetStallGuard(cfg.StallGuardEvents)
	}
	s.DRAM = dram.New(engine, cfg.DRAM)

	sliceName := func(i int) string { return fmt.Sprintf("gpu.l2.s%d", i) }
	switch cfg.NoC {
	case "", "xbar":
		s.Net = interconnect.NewCrossbar(engine, "xbar", cfg.XbarLat, cfg.XbarBW)
	case "ring":
		// Floorplan order: the CPU sits next to the memory controller,
		// slices around the ring.
		nodes := []string{"cpu", "mem"}
		for i := 0; i < cfg.GPUL2Slices; i++ {
			nodes = append(nodes, sliceName(i))
		}
		// Per-hop latency is the crossbar latency split over the mean
		// hop count so the two topologies have comparable average cost.
		hop := cfg.XbarLat / 2
		if hop == 0 {
			hop = 1
		}
		s.Net = interconnect.NewRing(engine, "ring", nodes, hop, cfg.XbarBW)
	default:
		panic(fmt.Sprintf("core: unknown NoC kind %q", cfg.NoC))
	}
	if cfg.Chaos != nil && cfg.Chaos.WrapNet != nil {
		s.Net = cfg.Chaos.WrapNet(engine, s.Net)
	}
	standalone := cfg.Mode == ModeStandalone
	// The coherent agents for a line are the CPU and the slice owning
	// it; probeSets[i] lists both, CPU first, for slice i. A request
	// probes the set minus its requester, a subslice of the same array.
	cpuPort := s.Net.Port("cpu")
	probeSets := make([][2]interconnect.Port, cfg.GPUL2Slices)
	for i := range probeSets {
		probeSets[i] = [2]interconnect.Port{cpuPort, s.Net.Port(sliceName(i))}
	}
	s.Mem = coherence.NewMemCtrl(engine, "mem", s.Net, s.DRAM,
		func(a memsys.Addr, requester interconnect.Port) []interconnect.Port {
			if standalone {
				// §III-H: no CPU↔GPU cross-probes; each request goes
				// straight to memory. Sound because shared data lives
				// only in the GPU L2.
				return nil
			}
			set := probeSets[memsys.SliceFor(a, cfg.GPUL2Slices)][:]
			switch requester {
			case set[0]:
				return set[1:]
			case set[1]:
				return set[:1]
			}
			return set
		})

	if cfg.RegionDirectory {
		shift := cfg.RegionShift
		if shift == 0 {
			shift = 12
		}
		s.Mem.AttachRegionDirectory(coherence.NewRegionDirectory(shift, func(name string) string {
			if strings.HasPrefix(name, "gpu.") {
				return "gpu"
			}
			return name
		}))
	}

	l1d := cache.Config{Name: "cpu.l1d", SizeBytes: cfg.CPUL1DBytes, Ways: cfg.CPUL1DWays}
	s.CPUCtrl = coherence.NewCtrl(engine, coherence.CtrlConfig{
		Name:     "cpu",
		L2:       cache.Config{Name: "cpu.l2", SizeBytes: cfg.CPUL2Bytes, Ways: cfg.CPUL2Ways},
		L1:       &l1d,
		L1HitLat: cfg.CPUL1Lat, L2HitLat: cfg.CPUL2Lat,
		MSHRs: cfg.CPUMSHRs, DirectGetx: cfg.DirectGetx,
		DirectOverXbar: cfg.DirectOverXbar,
	}, s.Net, s.Mem)

	sliceBytes := cfg.GPUL2Bytes / cfg.GPUL2Slices
	sliceShift := uint(0)
	for 1<<sliceShift < cfg.GPUL2Slices {
		sliceShift++
	}
	if 1<<sliceShift != cfg.GPUL2Slices {
		panic(fmt.Sprintf("core: GPU L2 slice count %d not a power of two", cfg.GPUL2Slices))
	}
	for i := 0; i < cfg.GPUL2Slices; i++ {
		i := i
		ctrlCfg := coherence.CtrlConfig{
			Name: sliceName(i),
			L2: cache.Config{Name: sliceName(i), SizeBytes: sliceBytes, Ways: cfg.GPUL2Ways,
				IndexShift: sliceShift, Policy: cfg.GPUL2Policy},
			L2HitLat:          cfg.SliceLat,
			MSHRs:             cfg.SliceMSHRs,
			BypassDirtyVictim: true,
			PushWriteThrough:  cfg.PushWriteThrough,
			Slice:             i,
		}
		if cfg.PrefetchDepth > 0 {
			ctrlCfg.OnDemandMiss = func(line memsys.Addr) { s.prefetchAfter(i, line) }
		}
		s.Slices = append(s.Slices, coherence.NewCtrl(engine, ctrlCfg, s.Net, s.Mem))
	}

	s.Direct = interconnect.NewLink(engine, "direct", cfg.DirectLat, cfg.DirectBW)
	var direct interconnect.DirectPort = s.Direct
	if cfg.Chaos != nil && cfg.Chaos.WrapDirect != nil {
		direct = cfg.Chaos.WrapDirect(engine, direct)
	}
	s.CPUCtrl.AttachDirectStore(direct, func(a memsys.Addr) *coherence.Ctrl {
		return s.Slices[memsys.SliceFor(a, cfg.GPUL2Slices)]
	})

	if ch := cfg.Chaos; ch != nil {
		for _, c := range append([]*coherence.Ctrl{s.CPUCtrl}, s.Slices...) {
			if ch.Hooks != nil {
				c.AttachChaos(ch.Hooks)
			}
			if ch.Resilience {
				c.EnableResilience()
			}
			if ch.OnFailure != nil {
				c.SetFailureHandler(ch.OnFailure)
			}
		}
		s.Mem.EnableWatchdog(watchdogInterval, watchdogLimit, ch.OnFailure)
	}

	cpuTLB := mmu.NewTLB(s.PT, mmu.Config{
		Name: "cpu.tlb", Entries: cfg.CPUTLBSize, HitLatency: 1, WalkLatency: cfg.TLBWalkLat,
		DirectBase: memalloc.DirectStoreBase, DirectLimit: memalloc.DirectStoreLimit,
	})
	s.Core = cpu.New(engine, cpu.Config{
		Name:               "cpu0",
		StoreBufferEntries: cfg.StoreBuffer,
		DirectStoreEnabled: cfg.Mode.DirectStoreEnabled(),
	}, cpuTLB, s.CPUCtrl, s.Vers)

	gpuTLB := mmu.NewTLB(s.PT, mmu.Config{
		Name: "gpu.tlb", Entries: cfg.GPUTLBSize, HitLatency: 1, WalkLatency: cfg.TLBWalkLat,
		DirectBase: memalloc.DirectStoreBase, DirectLimit: memalloc.DirectStoreLimit,
	})
	s.GPU = gpu.New(engine, gpu.Config{
		Name: "gpu", SMs: cfg.SMs, MaxWarpsPerSM: cfg.MaxWarpsPerSM,
		L1:       cache.Config{Name: "gpu.l1", SizeBytes: cfg.GPUL1Bytes, Ways: cfg.GPUL1Ways},
		L1HitLat: cfg.GPUL1Lat, SharedLat: cfg.SharedLat,
		MSHRsPerSM: cfg.GPUMSHRsPerSM,
	}, gpuTLB, s.Vers, func(a memsys.Addr) *coherence.Ctrl {
		return s.Slices[memsys.SliceFor(a, cfg.GPUL2Slices)]
	})

	if o := cfg.Obs; o != nil {
		// Attachment order fixes the component IDs, so identical wiring
		// yields identical traces run-to-run.
		s.Mem.AttachObserver(o)
		s.CPUCtrl.AttachObserver(o, false)
		for _, sl := range s.Slices {
			sl.AttachObserver(o, true)
		}
		s.Core.AttachObserver(o)
		s.GPU.AttachObserver(o)
		o.RegisterGauge("cpu_wbbuf_occupancy", func() uint64 { return uint64(s.CPUCtrl.WBBufLen()) })
		o.RegisterGauge("cpu_mshr_occupancy", func() uint64 { return uint64(s.CPUCtrl.MSHRInUse()) })
		o.RegisterGauge("gpu_l2_wbbuf_occupancy", func() uint64 {
			var n uint64
			for _, sl := range s.Slices {
				n += uint64(sl.WBBufLen())
			}
			return n
		})
		o.RegisterGauge("gpu_l2_mshr_occupancy", func() uint64 {
			var n uint64
			for _, sl := range s.Slices {
				n += uint64(sl.MSHRInUse())
			}
			return n
		})
		o.RegisterGauge("gpu_l1_mshr_occupancy", func() uint64 { return uint64(s.GPU.MSHRInUse()) })
		if o.Options().TimeSeries {
			// The sampler only observes clock advances; it never
			// schedules events, so the event sequence is untouched.
			engine.SetAdvanceHook(o.Tick)
		}
	}
	return s
}

// Release gives the machine's cache arrays, coherence line-table
// pages, packet slabs and event-heap pages to the free lists the next
// NewSystem draws from, so a stream
// of jobs allocates only what one machine holds (DESIGN.md, "Machine
// lifetime"). Only the machine's owner may call it, after its last
// read of the machine; afterwards only its counters stay readable. A
// Result, an observer's exports and a Snapshot blob hold no reference
// to the released arrays. A machine that is never released is simply
// collected.
func (s *System) Release() {
	s.CPUCtrl.Release()
	for _, sl := range s.Slices {
		sl.Release()
	}
	s.Mem.Release()
	s.GPU.Release()
	s.Engine.Release()
}

// prefetchAfter issues next-line prefetches into whichever slices own
// the following lines (lines interleave, so the neighbours usually live
// in other slices).
func (s *System) prefetchAfter(_ int, line memsys.Addr) {
	for d := 1; d <= s.Cfg.PrefetchDepth; d++ {
		next := line + memsys.Addr(d)*memsys.LineSize
		s.ctr.L2PrefetchesIssued++
		s.Slices[memsys.SliceFor(next, s.Cfg.GPUL2Slices)].Prefetch(next)
	}
}

// Counters are the machine-level counts no single layer owns.
type Counters struct {
	L2PrefetchesIssued uint64
}

// Rows lists the counters by name, in dump and snapshot order.
func (c *Counters) Rows() stats.Rows {
	return stats.Rows{
		{Name: "l2_prefetches_issued", N: &c.L2PrefetchesIssued},
	}
}

// Get returns the named counter; an undeclared name panics.
func (c *Counters) Get(name string) uint64 { return c.Rows().Get(name) }

// Counters exposes system-level counters (prefetches issued).
func (s *System) Counters() *Counters { return &s.ctr }

// AllocShared allocates a buffer the GPU will consume. In the
// direct-store modes it lands in the reserved region (what the
// translator does to kernel-referenced variables); in CCSM mode it is
// an ordinary heap allocation.
func (s *System) AllocShared(size uint64, name string) (memsys.Addr, error) {
	if s.Cfg.Mode.DirectStoreEnabled() {
		return s.Space.AllocDirect(size, name)
	}
	return s.Space.Malloc(size, name)
}

// AllocPrivate allocates CPU-private memory regardless of mode.
func (s *System) AllocPrivate(size uint64, name string) (memsys.Addr, error) {
	return s.Space.Malloc(size, name)
}

// ctxStop adapts a context to the engine's stop-polling interface. A
// context that can never be cancelled maps to nil, which keeps the
// uncancellable paths on the engine's plain Run loop.
func ctxStop(ctx context.Context) func() bool {
	if ctx == nil || ctx.Done() == nil {
		return nil
	}
	done := ctx.Done()
	return func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
}

// RunCPU executes a CPU op stream to completion (produce or readback
// phase) and returns the elapsed ticks.
func (s *System) RunCPU(ops []cpu.Op) sim.Tick {
	t, err := s.RunStreamContext(context.Background(), cpu.NewSliceStream(ops))
	if err != nil {
		panic("core: CPU phase cancelled without a cancellable context")
	}
	return t
}

// RunStreamContext executes a CPU op stream to completion and returns
// the elapsed ticks. The phase is abandoned mid-simulation if ctx is
// cancelled, returning ctx's error and the ticks elapsed so far. A
// cancelled system is torn mid-transaction and must not be reused for
// further phases or invariant checks.
func (s *System) RunStreamContext(ctx context.Context, stream cpu.OpStream) (sim.Tick, error) {
	start := s.Engine.Now()
	done := false
	s.Core.Run(stream, func() { done = true })
	if _, drained := s.Engine.RunInterruptible(ctxStop(ctx)); !drained {
		return s.Engine.Now() - start, ctx.Err()
	}
	if !done {
		panic("core: CPU phase did not complete")
	}
	return s.Engine.Now() - start, nil
}

// RunKernel launches a GPU kernel to completion and returns the elapsed
// ticks.
func (s *System) RunKernel(k gpu.Kernel) sim.Tick {
	t, err := s.RunKernelContext(context.Background(), k)
	if err != nil {
		panic("core: kernel cancelled without a cancellable context")
	}
	return t
}

// RunKernelContext is RunKernel under a context, with the same
// cancellation contract as RunStreamContext.
func (s *System) RunKernelContext(ctx context.Context, k gpu.Kernel) (sim.Tick, error) {
	start := s.Engine.Now()
	done := false
	s.GPU.Launch(k, func() { done = true })
	if _, drained := s.Engine.RunInterruptible(ctxStop(ctx)); !drained {
		return s.Engine.Now() - start, ctx.Err()
	}
	if !done {
		panic(fmt.Sprintf("core: kernel %q did not complete", k.Name))
	}
	return s.Engine.Now() - start, nil
}

// RunOverlapped runs a CPU op stream and a kernel concurrently (the
// CPU keeps producing while the GPU consumes) and returns elapsed
// ticks.
func (s *System) RunOverlapped(ops []cpu.Op, k gpu.Kernel) sim.Tick {
	start := s.Engine.Now()
	cpuDone, gpuDone := false, false
	s.Core.Run(cpu.NewSliceStream(ops), func() { cpuDone = true })
	s.GPU.Launch(k, func() { gpuDone = true })
	s.Engine.Run()
	if !cpuDone || !gpuDone {
		panic("core: overlapped phase did not complete")
	}
	return s.Engine.Now() - start
}

// Now returns the current simulation tick.
func (s *System) Now() sim.Tick { return s.Engine.Now() }

// CheckCoherence validates the MOESI invariants over every line of
// every allocated region (single owner, exclusive implies sole copy,
// no in-flight transactions). Call it after the system drains; a
// non-nil error is a protocol bug.
func (s *System) CheckCoherence() error {
	k, err := s.Mem.InvariantChecker()
	if err != nil {
		return err
	}
	for _, r := range s.Space.Regions() {
		for va := memsys.LineAlign(r.Base); va < r.End(); va += memsys.LineSize {
			if pa, ok := s.PT.Lookup(va); ok {
				if err := k.Check(pa); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// GPUL2Accesses sums demand accesses over the GPU L2 slices.
func (s *System) GPUL2Accesses() uint64 {
	var n uint64
	for _, sl := range s.Slices {
		n += sl.L2Cache().Counters().Accesses
	}
	return n
}

// GPUL2Misses sums demand misses over the GPU L2 slices.
func (s *System) GPUL2Misses() uint64 {
	var n uint64
	for _, sl := range s.Slices {
		n += sl.L2Cache().Counters().Misses
	}
	return n
}

// GPUL2MissRate returns misses/accesses over the GPU L2 (0 when idle,
// matching the paper's zero bars).
func (s *System) GPUL2MissRate() float64 {
	return stats.Ratio(s.GPUL2Misses(), s.GPUL2Accesses())
}

// PushesReceived sums direct-store installs over the slices.
func (s *System) PushesReceived() uint64 {
	var n uint64
	for _, sl := range s.Slices {
		n += sl.Counters().PushesReceived
	}
	return n
}

// CoherenceTrafficBytes returns bytes moved over the shared crossbar
// (the CCSM network); direct-network bytes are reported separately.
func (s *System) CoherenceTrafficBytes() uint64 { return s.Net.Counters().Bytes }

// DirectTrafficBytes returns bytes moved over the dedicated network.
func (s *System) DirectTrafficBytes() uint64 { return s.Direct.Counters().Bytes }

// Table1 renders the system configuration in the shape of the paper's
// Table I.
func (c Config) Table1() *stats.Table {
	t := stats.NewTable("Component", "Configuration")
	t.AddRow("CPU cores", "1")
	t.AddRow("CPU L1D cache", fmt.Sprintf("%dKB, %d ways", c.CPUL1DBytes/1024, c.CPUL1DWays))
	t.AddRow("CPU L1I cache", fmt.Sprintf("%dKB, %d ways", c.CPUL1IBytes/1024, c.CPUL1IWays))
	t.AddRow("CPU L2 cache", fmt.Sprintf("%dMB, %d ways", c.CPUL2Bytes/(1024*1024), c.CPUL2Ways))
	t.AddRow("GPU SMs", fmt.Sprintf("%d - 32 lanes per SM @ 1.4GHz", c.SMs))
	t.AddRow("GPU L1 cache", fmt.Sprintf("%dKB + 48KB shared memory, %d ways", c.GPUL1Bytes/1024, c.GPUL1Ways))
	t.AddRow("GPU L2 cache", fmt.Sprintf("%dMB, %d ways, %d slices", c.GPUL2Bytes/(1024*1024), c.GPUL2Ways, c.GPUL2Slices))
	t.AddRow("Memory", fmt.Sprintf("%dGB, %d channel, %d ranks, %d banks @ 1GHz",
		c.MemBytes/(1024*1024*1024), c.DRAM.Channels, c.DRAM.Ranks, c.DRAM.Banks))
	t.AddRow("Cache line", fmt.Sprintf("%d bytes", memsys.LineSize))
	t.AddRow("Coherence", "MOESI Hammer (modified per Fig. 3)")
	return t
}

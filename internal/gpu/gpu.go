// Package gpu models the GPU side of the integrated system: an array of
// streaming multiprocessors (SMs) executing warps, per-SM L1 caches
// that are write-through and flash-invalidated at kernel launch (the
// software coherence regime the paper describes for GPU L1s in §III-A),
// per-SM scratchpad ("shared memory") accesses that bypass the cache
// hierarchy, and coalesced global accesses feeding the shared,
// address-interleaved GPU L2 slices through the coherence layer.
//
// Warp execution models latency hiding the way the experiments need it:
// each SM keeps several warps resident, a blocked warp (waiting on
// global loads) yields the issue slot, and the per-SM L1 MSHR file
// bounds memory-level parallelism. Small working sets hide latency
// behind warp parallelism; big inputs exhaust MSHRs and expose it —
// reproducing the paper's observation that shared-memory benchmarks
// only benefit from direct store once inputs grow (§IV-C).
package gpu

import (
	"fmt"

	"dstore/internal/cache"
	"dstore/internal/coherence"
	"dstore/internal/cpu"
	"dstore/internal/memsys"
	"dstore/internal/mmu"
	"dstore/internal/obs"
	"dstore/internal/sim"
	"dstore/internal/stats"
)

// OpKind classifies a warp instruction's memory behaviour.
type OpKind uint8

// Warp operation kinds.
const (
	// OpCompute spends Gap ticks of arithmetic.
	OpCompute OpKind = iota
	// OpShared is a scratchpad access: fixed low latency, no cache or
	// coherence traffic. Lines: n runs n back-to-back accesses, each
	// taking its own issue slot and SharedLat, exactly as n separate
	// OpShared ops would; Lines <= 1 is one access.
	OpShared
	// OpGlobalLoad reads Lines consecutive cache lines starting at
	// Addr; the warp blocks until all lines arrive. Lines==1 is a fully
	// coalesced 32-lane access; larger values model uncoalesced or
	// multi-line accesses.
	OpGlobalLoad
	// OpGlobalStore writes Lines consecutive cache lines; the warp does
	// not block (write-through, no allocate).
	OpGlobalStore
	// OpBarrier synchronises every warp of the kernel: a warp reaching
	// it suspends until all still-running warps arrive (or finish).
	// Kernels using barriers must fit entirely within the GPU's
	// resident-warp capacity (SMs × MaxWarpsPerSM), as on real
	// hardware's cooperative launches; Launch panics otherwise.
	OpBarrier
)

// WarpOp is one operation of a warp's instruction stream.
type WarpOp struct {
	Kind OpKind
	// Addr is the virtual address of the access's first line. In a
	// Loop body it is an offset from the iteration's address.
	Addr  memsys.Addr
	Lines int      // lines touched by global ops, repeats of OpShared (min 1)
	Gap   sim.Tick // compute duration for OpCompute
}

// Loop is a compact instruction stream: Body runs once per address in
// Addrs, in order, with each global op's Addr taken as an offset from
// that address. A warp walking n lines with a k-op body is one Loop of
// n addresses instead of n×k materialised ops, and the body can be
// shared by every warp of a kernel. Execution is indistinguishable
// from the same ops written out in full.
type Loop struct {
	Body  []WarpOp
	Addrs []memsys.Addr
}

// Warp is the instruction stream of one warp: Ops in order, then each
// of Loops in order. Either may be empty.
type Warp struct {
	Ops   []WarpOp
	Loops []Loop
}

// Kernel is a named collection of warps dispatched together.
type Kernel struct {
	Name  string
	Warps []Warp
}

// Config describes the GPU (Table I defaults live in the core package).
type Config struct {
	Name string
	// SMs is the number of streaming multiprocessors.
	SMs int
	// MaxWarpsPerSM bounds concurrently resident warps per SM.
	MaxWarpsPerSM int
	// L1 describes each SM's private L1 data cache.
	L1 cache.Config
	// L1HitLat is the L1 access latency in ticks (GPU clock domain
	// folded in).
	L1HitLat sim.Tick
	// SharedLat is the scratchpad access latency.
	SharedLat sim.Tick
	// IssueInterval is the per-SM warp-op issue spacing in ticks.
	IssueInterval sim.Tick
	// MSHRsPerSM bounds outstanding L1 misses per SM.
	MSHRsPerSM int
	// MSHRRetry is the back-off before retrying a stalled miss.
	MSHRRetry sim.Tick
	// MaxStoresPerSM bounds outstanding write-through stores per SM; a
	// warp issuing a store while the pipeline is full stalls until a
	// slot frees (real SMs back-pressure the LSU the same way).
	MaxStoresPerSM int
}

// GPU is the SM array plus its shared L2 slices (owned by the caller
// and attached at construction).
type GPU struct {
	engine *sim.Engine
	cfg    Config
	sms    []*sm
	// sliceFor routes a physical line address to its L2 slice
	// controller.
	sliceFor func(memsys.Addr) *coherence.Ctrl
	tlb      *mmu.TLB
	vers     *cpu.VersionSource

	running           bool
	warpsLeft         int
	outstandingStores int
	kernelDone        func()
	barrierWaiters    []*warpCtx
	// ctxs holds the running kernel's warp contexts, one per warp, in
	// one contiguous arena reused from kernel to kernel: warps step
	// interleaved, so dense layout keeps the hot cursor and
	// pendingLines words of neighbouring warps on shared cache lines.
	// A kernel boundary is quiescent (no event, fill or request still
	// refers to a context), so Launch may overwrite them.
	ctxs []warpCtx

	// Observability (AttachObserver): nil in normal operation.
	obs   *obs.Observer
	obsID obs.CompID

	ctr Counters
}

type sm struct {
	g         *GPU
	id        int
	l1        *cache.Cache
	issueFree sim.Tick
	// next indexes the SM's next queued warp in g.ctxs: warps are dealt
	// round-robin, so the SM's queue is ctxs[id], ctxs[id+SMs], ...
	next           int
	active         int
	storesInFlight int

	// fills is the SM's L1 MSHR file: one entry per outstanding miss,
	// linear-scanned (MSHRsPerSM is single digits). Entries and the
	// in-flight load/store carriers below are drawn from per-SM pools so
	// the steady-state memory path allocates nothing.
	fills     []*fill
	fillPool  []*fill
	loadPool  []*loadReq
	storePool []*storeReq
}

type warpCtx struct {
	s *sm
	// g duplicates s.g: exec is the hottest event in the simulator and
	// the double pointer chase through a cold sm was measurable.
	g *GPU
	// op is the operation being executed, its Addr already rebased on
	// the loop iteration's address. The loop cursor below locates the
	// next one: body[pc] of iteration addrs[ai], then the remaining
	// loops. A warp's plain Ops run as a first loop over onePass.
	op           WarpOp
	body         []WarpOp
	addrs        []memsys.Addr
	loops        []Loop
	pc, ai       int
	pendingLines int
	// rep counts the accesses of the current OpShared already issued.
	rep int
}

// onePass is the iteration list of a warp's plain Ops: one iteration
// at offset zero.
var onePass = []memsys.Addr{0}

// loadReq carries one line of a global load from TLB translation to the
// L1 lookup (and through MSHR-full retries). Pooled per SM.
type loadReq struct {
	s    *sm
	w    *warpCtx
	line memsys.Addr
}

// fill is one outstanding L1 miss: the memory request sent to the L2
// slice plus the warps waiting on the line. The request's Done callback
// is created once, when the fill enters its pool, and reused for the
// object's lifetime.
type fill struct {
	s       *sm
	line    memsys.Addr
	waiters []*warpCtx
	req     memsys.Request
}

// storeReq carries one line of a write-through global store. Pooled per
// SM; the Done callback is created once per object.
type storeReq struct {
	s   *sm
	req memsys.Request
}

// Static event trampolines: scheduling these with a pooled or pinned
// argument allocates nothing (pointer-shaped args box for free).
func stepWarp(arg any, _ sim.Tick)     { arg.(*warpCtx).step() }
func issueWarp(arg any, _ sim.Tick)    { arg.(*warpCtx).issue() }
func execWarp(arg any, _ sim.Tick)     { w := arg.(*warpCtx); w.exec(&w.op) }
func lineDoneWarp(arg any, _ sim.Tick) { arg.(*warpCtx).lineDone() }
func loadLookup(arg any, _ sim.Tick)   { lr := arg.(*loadReq); lr.s.lookupLoad(lr, false) }
func loadRetry(arg any, _ sim.Tick)    { lr := arg.(*loadReq); lr.s.lookupLoad(lr, true) }
func storeLaunch(arg any, now sim.Tick) {
	sr := arg.(*storeReq)
	sr.req.Issued = now
	sr.s.g.sliceFor(sr.req.Addr).Access(&sr.req)
}

// New builds a GPU. sliceFor must route any physical address to one of
// the GPU L2 slice controllers.
func New(engine *sim.Engine, cfg Config, tlb *mmu.TLB, vers *cpu.VersionSource,
	sliceFor func(memsys.Addr) *coherence.Ctrl) *GPU {
	if cfg.SMs <= 0 || cfg.MaxWarpsPerSM <= 0 || cfg.MSHRsPerSM <= 0 {
		panic(fmt.Sprintf("gpu %s: non-positive geometry", cfg.Name))
	}
	if cfg.IssueInterval == 0 {
		cfg.IssueInterval = 1
	}
	if cfg.MSHRRetry == 0 {
		cfg.MSHRRetry = 4
	}
	if cfg.MaxStoresPerSM == 0 {
		cfg.MaxStoresPerSM = 16
	}
	g := &GPU{
		engine:   engine,
		cfg:      cfg,
		sliceFor: sliceFor,
		tlb:      tlb,
		vers:     vers,
	}
	for i := 0; i < cfg.SMs; i++ {
		l1cfg := cfg.L1
		l1cfg.Name = fmt.Sprintf("%s.sm%d.l1", cfg.Name, i)
		g.sms = append(g.sms, &sm{
			g:  g,
			id: i,
			l1: cache.New(l1cfg),
		})
	}
	return g
}

// Release gives every SM's L1 array to the cache free lists, under the
// rule of cache.Cache.Release, and drops the warp-context arena.
func (g *GPU) Release() {
	for _, s := range g.sms {
		s.l1.Release()
	}
	g.ctxs = nil
}

// Counters are the SM array's kernel, memory-operation and stall counts.
type Counters struct {
	KernelLaunches, GlobalLoadLines, GlobalStoreLines, SharedOps uint64
	L1LinesFlashInvalidated, L1MSHRStalls, BarrierArrivals       uint64
}

// Rows lists the counters by name, in dump and snapshot order.
func (c *Counters) Rows() stats.Rows {
	return stats.Rows{
		{Name: "kernel_launches", N: &c.KernelLaunches},
		{Name: "global_load_lines", N: &c.GlobalLoadLines},
		{Name: "global_store_lines", N: &c.GlobalStoreLines},
		{Name: "shared_ops", N: &c.SharedOps},
		{Name: "l1_lines_flash_invalidated", N: &c.L1LinesFlashInvalidated},
		{Name: "l1_mshr_stalls", N: &c.L1MSHRStalls},
		{Name: "barrier_arrivals", N: &c.BarrierArrivals},
	}
}

// Get returns the named counter; an undeclared name panics.
func (c *Counters) Get(name string) uint64 { return c.Rows().Get(name) }

// Counters exposes the GPU's counters.
func (g *GPU) Counters() *Counters { return &g.ctr }

// AttachObserver connects the SM array to the observability layer:
// global-load completions feed the GPU load-latency histogram, and
// per-SM L1 demand accesses flow through cache access hooks.
func (g *GPU) AttachObserver(o *obs.Observer) {
	if o == nil {
		return
	}
	g.obs = o
	g.obsID = o.Component(g.cfg.Name)
	for _, s := range g.sms {
		s := s
		id := o.Component(s.l1.Name())
		s.l1.SetAccessHook(func(a memsys.Addr, hit bool) {
			o.CacheAccess(g.engine.Now(), id, a, 1, hit, false)
		})
	}
}

// MSHRInUse returns the allocated L1 MSHR entries across all SMs
// (telemetry gauge).
func (g *GPU) MSHRInUse() int {
	n := 0
	for _, s := range g.sms {
		n += len(s.fills)
	}
	return n
}

// L1Caches returns the per-SM L1 arrays (for aggregate statistics).
func (g *GPU) L1Caches() []*cache.Cache {
	out := make([]*cache.Cache, len(g.sms))
	for i, s := range g.sms {
		out[i] = s.l1
	}
	return out
}

// Launch dispatches a kernel: flash-invalidates every L1 (the paper's
// software L1-coherence regime), distributes warps round-robin over the
// SMs, and fires done when every warp has finished and every store has
// reached the L2.
func (g *GPU) Launch(k Kernel, done func()) {
	if g.running {
		panic(fmt.Sprintf("gpu %s: Launch while a kernel is running", g.cfg.Name))
	}
	if len(k.Warps) == 0 {
		if done != nil {
			g.engine.Schedule(0, done)
		}
		return
	}
	if len(k.Warps) > g.cfg.SMs*g.cfg.MaxWarpsPerSM && kernelUsesBarriers(k) {
		panic(fmt.Sprintf("gpu %s: kernel %q uses barriers with %d warps, above the resident capacity %d",
			g.cfg.Name, k.Name, len(k.Warps), g.cfg.SMs*g.cfg.MaxWarpsPerSM))
	}
	g.running = true
	g.ctr.KernelLaunches++
	g.kernelDone = done
	g.warpsLeft = len(k.Warps)
	for _, s := range g.sms {
		g.ctr.L1LinesFlashInvalidated += uint64(s.l1.InvalidateAll())
	}
	if cap(g.ctxs) < len(k.Warps) {
		g.ctxs = make([]warpCtx, len(k.Warps))
	}
	g.ctxs = g.ctxs[:len(k.Warps)]
	for i, wp := range k.Warps {
		g.ctxs[i] = warpCtx{s: g.sms[i%len(g.sms)], g: g, body: wp.Ops, addrs: onePass, loops: wp.Loops}
	}
	for _, s := range g.sms {
		s.next = s.id
		s.fillActive()
	}
}

// kernelUsesBarriers reports whether any warp contains an OpBarrier,
// in its Ops or in a loop body.
func kernelUsesBarriers(k Kernel) bool {
	hasBarrier := func(ops []WarpOp) bool {
		for _, op := range ops {
			if op.Kind == OpBarrier {
				return true
			}
		}
		return false
	}
	for _, w := range k.Warps {
		if hasBarrier(w.Ops) {
			return true
		}
		for _, l := range w.Loops {
			if hasBarrier(l.Body) {
				return true
			}
		}
	}
	return false
}

// fillActive starts queued warps up to the residency bound.
func (s *sm) fillActive() {
	for s.active < s.g.cfg.MaxWarpsPerSM && s.next < len(s.g.ctxs) {
		w := &s.g.ctxs[s.next]
		s.next += len(s.g.sms)
		s.active++
		s.g.engine.ScheduleArg(0, stepWarp, w)
	}
}

// step advances a warp to its next operation. The scheduled exec event
// reads the operation from w.op, so no per-op closure is needed; w.op
// does not change again until the operation completes.
func (w *warpCtx) step() {
	if !w.next() {
		w.done()
		return
	}
	w.issue()
}

// next loads the warp's next operation into w.op, moving the loop
// cursor on. It reports false once every loop is exhausted.
func (w *warpCtx) next() bool {
	for w.pc == len(w.body) {
		w.pc = 0
		w.ai++
		for w.ai >= len(w.addrs) {
			if len(w.loops) == 0 {
				return false
			}
			w.body, w.addrs, w.loops, w.ai = w.loops[0].Body, w.loops[0].Addrs, w.loops[1:], 0
		}
	}
	w.op = w.body[w.pc]
	w.op.Addr += w.addrs[w.ai]
	w.pc++
	return true
}

// issue books the SM's next issue slot for the operation in w.op.
func (w *warpCtx) issue() {
	s := w.s
	now := s.g.engine.Now()
	slot := now
	if s.issueFree > slot {
		slot = s.issueFree
	}
	s.issueFree = slot + s.g.cfg.IssueInterval
	s.g.engine.ScheduleArgAt(slot, execWarp, w)
}

func (w *warpCtx) exec(op *WarpOp) {
	g := w.g
	switch op.Kind {
	case OpCompute:
		g.engine.ScheduleArg(op.Gap, stepWarp, w)
	case OpShared:
		g.ctr.SharedOps++
		if w.rep++; w.rep < op.Lines {
			g.engine.ScheduleArg(g.cfg.SharedLat, issueWarp, w)
			return
		}
		w.rep = 0
		g.engine.ScheduleArg(g.cfg.SharedLat, stepWarp, w)
	case OpGlobalLoad:
		lines := op.Lines
		if lines < 1 {
			lines = 1
		}
		g.ctr.GlobalLoadLines += uint64(lines)
		w.pendingLines = lines
		for i := 0; i < lines; i++ {
			w.s.serveLoad(w, op.Addr+memsys.Addr(i)*memsys.LineSize)
		}
	case OpBarrier:
		g.ctr.BarrierArrivals++
		g.barrierWaiters = append(g.barrierWaiters, w)
		g.checkBarrierRelease()
	case OpGlobalStore:
		if w.s.storesInFlight >= g.cfg.MaxStoresPerSM {
			// Store pipeline full: the warp stalls until a slot frees.
			// w.op still holds the store, so the retry re-executes it.
			g.engine.ScheduleArg(g.cfg.MSHRRetry, execWarp, w)
			return
		}
		lines := op.Lines
		if lines < 1 {
			lines = 1
		}
		g.ctr.GlobalStoreLines += uint64(lines)
		for i := 0; i < lines; i++ {
			w.s.issueStore(op.Addr + memsys.Addr(i)*memsys.LineSize)
		}
		// Write-through stores do not block the warp once accepted.
		g.engine.ScheduleArg(g.cfg.IssueInterval, stepWarp, w)
	default:
		panic(fmt.Sprintf("gpu: unknown warp op kind %d", op.Kind))
	}
}

// lineDone retires one of a load's lines; the warp resumes when all
// arrive.
func (w *warpCtx) lineDone() {
	w.pendingLines--
	if w.pendingLines == 0 {
		w.step()
	}
}

func (w *warpCtx) done() {
	s := w.s
	g := s.g
	s.active--
	s.fillActive()
	g.warpsLeft--
	g.checkBarrierRelease()
	g.checkKernelDone()
}

// checkBarrierRelease resumes the barrier waiters once every
// still-running warp has arrived.
func (g *GPU) checkBarrierRelease() {
	if len(g.barrierWaiters) == 0 || len(g.barrierWaiters) < g.warpsLeft {
		return
	}
	ws := g.barrierWaiters
	g.barrierWaiters = nil
	for _, w := range ws {
		g.engine.ScheduleArg(1, stepWarp, w)
	}
}

func (g *GPU) checkKernelDone() {
	if g.warpsLeft != 0 || g.outstandingStores != 0 || !g.running {
		return
	}
	g.running = false
	if g.kernelDone != nil {
		done := g.kernelDone
		g.kernelDone = nil
		g.engine.Schedule(0, done)
	}
}

// serveLoad runs one line of a global load through the SM's L1 and, on
// a miss, the owning L2 slice.
func (s *sm) serveLoad(w *warpCtx, va memsys.Addr) {
	g := s.g
	pa, tlbLat, _, err := g.tlb.Translate(va)
	if err != nil {
		panic(fmt.Sprintf("gpu %s: translation failed: %v", g.cfg.Name, err))
	}
	var lr *loadReq
	if n := len(s.loadPool); n > 0 {
		lr = s.loadPool[n-1]
		s.loadPool = s.loadPool[:n-1]
	} else {
		lr = &loadReq{}
	}
	lr.s, lr.w, lr.line = s, w, memsys.LineAlign(pa)
	g.engine.ScheduleArg(tlbLat, loadLookup, lr)
}

// lookupLoad runs one line through the L1. retry marks an access that
// was already counted and then stalled on a full MSHR file — retries
// refresh replacement state but stay invisible to the statistics. The
// loadReq returns to its pool as soon as the line's fate is settled
// (hit, merged, or handed to a fill); a stalled miss keeps it for the
// retry.
func (s *sm) lookupLoad(lr *loadReq, retry bool) {
	g := s.g
	w, line := lr.w, lr.line
	var hit bool
	if retry {
		_, hit = s.l1.Touch(line)
	} else {
		_, hit = s.l1.Lookup(line)
	}
	if hit {
		s.loadPool = append(s.loadPool, lr)
		g.obs.Latency(g.engine.Now(), g.obsID, obs.HistGPULoadLat, line, g.cfg.L1HitLat)
		g.engine.ScheduleArg(g.cfg.L1HitLat, lineDoneWarp, w)
		return
	}
	for _, f := range s.fills {
		if f.line == line {
			s.loadPool = append(s.loadPool, lr)
			f.waiters = append(f.waiters, w)
			return
		}
	}
	if len(s.fills) >= g.cfg.MSHRsPerSM {
		g.ctr.L1MSHRStalls++
		g.engine.ScheduleArg(g.cfg.MSHRRetry, loadRetry, lr)
		return
	}
	s.loadPool = append(s.loadPool, lr)
	var f *fill
	if n := len(s.fillPool); n > 0 {
		f = s.fillPool[n-1]
		s.fillPool = s.fillPool[:n-1]
	} else {
		f = &fill{s: s}
		f.req.Done = f.done
	}
	f.line = line
	f.waiters = append(f.waiters[:0], w)
	f.req.Type, f.req.Addr, f.req.Ver = memsys.Load, line, 0
	f.req.Issued = g.engine.Now()
	s.fills = append(s.fills, f)
	g.sliceFor(line).Access(&f.req)
}

// done retires an outstanding miss: the line is installed, the MSHR
// entry freed before the waiters resume (matching the allocate path's
// view of a full file), and the fill recycled.
func (f *fill) done(now sim.Tick) {
	s := f.s
	g := s.g
	g.obs.Latency(now, g.obsID, obs.HistGPULoadLat, f.line, now-f.req.Issued)
	s.l1.Insert(f.line, 1, false)
	for i, x := range s.fills {
		if x == f {
			s.fills = append(s.fills[:i], s.fills[i+1:]...)
			break
		}
	}
	for _, w := range f.waiters {
		w.lineDone()
	}
	f.waiters = f.waiters[:0]
	s.fillPool = append(s.fillPool, f)
}

// issueStore sends one line of a global store through the write-through
// path: the L1 is updated if present (never allocated) and the store
// proceeds to the owning slice.
func (s *sm) issueStore(va memsys.Addr) {
	g := s.g
	pa, tlbLat, _, err := g.tlb.Translate(va)
	if err != nil {
		panic(fmt.Sprintf("gpu %s: translation failed: %v", g.cfg.Name, err))
	}
	line := memsys.LineAlign(pa)
	g.outstandingStores++
	s.storesInFlight++
	ver := g.vers.Next()
	// Write-through, write-no-allocate L1: a resident copy is freshened
	// in place (no state change — data is not modelled), an absent line
	// is not allocated.
	var sr *storeReq
	if n := len(s.storePool); n > 0 {
		sr = s.storePool[n-1]
		s.storePool = s.storePool[:n-1]
	} else {
		sr = &storeReq{s: s}
		sr.req.Done = sr.done
	}
	sr.req.Type, sr.req.Addr, sr.req.Ver = memsys.Store, line, ver
	g.engine.ScheduleArg(tlbLat, storeLaunch, sr)
}

// done retires a write-through store and recycles its carrier.
func (sr *storeReq) done(sim.Tick) {
	s := sr.s
	g := s.g
	g.outstandingStores--
	s.storesInFlight--
	s.storePool = append(s.storePool, sr)
	g.checkKernelDone()
}

package coherence

import (
	"fmt"

	"dstore/internal/cache"
	"dstore/internal/interconnect"
	"dstore/internal/memsys"
	"dstore/internal/obs"
	"dstore/internal/sim"
	"dstore/internal/stats"
)

// CtrlConfig describes a coherent cache controller. The CPU cache
// complex uses both levels (an L1D shadow over the protocol-level L2);
// each GPU L2 slice uses only the L2 array (GPU L1s are non-coherent
// and live in the gpu package).
type CtrlConfig struct {
	Name string
	// L2 is the protocol-level array.
	L2 cache.Config
	// L1 optionally shadows the L2 (CPU L1D). L1 is write-through to
	// the L2 with silent clean evictions; protocol state lives only at
	// the L2.
	L1 *cache.Config
	// L1HitLat and L2HitLat are lookup latencies in ticks.
	L1HitLat sim.Tick
	L2HitLat sim.Tick
	// MSHRs bounds outstanding distinct misses.
	MSHRs int
	// DirectGetx, when set, models the paper's §III-F sequence
	// literally: each direct-store push is preceded by a GETX control
	// message on the dedicated network before the PUTX data message.
	DirectGetx bool
	// OnDemandMiss, when set, fires for every demand miss that
	// allocates an MSHR (not for merges). The prefetcher used by the
	// paper's prefetching comparison hangs off this hook.
	OnDemandMiss func(line memsys.Addr)
	// BypassDirtyVictim makes demand fills that would evict a dirty
	// line bypass the cache instead (no-allocate): loads complete from
	// the fill data and stores write through. The GPU L2 slices use
	// this so a streaming miss burst cannot churn pushed (dirty) lines
	// out one writeback at a time.
	BypassDirtyVictim bool
	// DirectOverXbar routes pushes over the shared crossbar instead of
	// the dedicated network — the ablation for §III-G's added link.
	DirectOverXbar bool
	// PushWriteThrough makes pushes also update memory, installing the
	// line exclusive-clean (M) instead of MM — the ablation for the
	// paper's choice of MM as the install state (§III-F).
	PushWriteThrough bool
	// Slice is the controller's index among the 1<<L2.IndexShift
	// line-interleaved GPU L2 slices. The controller is only ever sent
	// the lines whose number modulo the slice count is Slice, and its
	// line table holds only those. Zero for an unsliced controller.
	Slice int
}

// Ctrl is a coherent cache controller speaking the Hammer protocol with
// the memory controller, extended with the direct-store operations:
// sending pushes (CPU side) and receiving PUTX installs (GPU L2 slice
// side).
type Ctrl struct {
	engine *sim.Engine
	cfg    CtrlConfig
	name   string
	port   interconnect.Port
	xbar   interconnect.Network
	mem    *MemCtrl

	l1   *cache.Cache
	l2   *cache.Cache
	mshr *cache.MSHR
	// lines is the dense table of resident data versions. A slice's
	// table holds only the slice's own lines.
	lines lineTab
	// wb is the writeback buffer: dirty evicted lines (and overflowed
	// pushes) in flight to memory until it acknowledges them, each with
	// its staleness mark (see wbBuf). The staleness mark was found by
	// the model checker: without it, a load after a remote store
	// returns the pre-store data.
	wb lineMap[wbBuf]
	// remotePending holds uncacheable direct-region loads awaiting
	// data.
	remotePending map[memsys.Addr][]*memsys.Request
	// stalled queues demand misses that found the MSHR file full.
	stalled  reqQueue
	portFree sim.Tick

	// Direct-store send side (CPU controller only).
	directLink interconnect.DirectPort
	pushTarget func(memsys.Addr) *Ctrl

	// Fault injection and recovery (chaos runs only; all nil/zero in
	// normal operation, leaving behaviour byte-identical).
	hooks       *ChaosHooks
	resilient   bool
	onFatal     func(error)
	pushSeq     uint64
	pushPending map[uint64]*pendingPush
	appliedPush map[uint64]bool
	lastPushVer map[memsys.Addr]uint64

	// Observability (AttachObserver): nil in normal operation. Every
	// recording site is guarded by a nil check, so a detached controller
	// pays one predictable branch and behaviour stays byte-identical.
	obs    *obs.Observer
	obsID  obs.CompID
	obsMem obs.CompID

	ctr CtrlCounters
}

// NewCtrl builds a controller, creating its cache arrays, and registers
// it with the memory controller.
func NewCtrl(engine *sim.Engine, cfg CtrlConfig, xbar interconnect.Network, mem *MemCtrl) *Ctrl {
	if cfg.MSHRs <= 0 {
		panic(fmt.Sprintf("coherence %s: non-positive MSHR count", cfg.Name))
	}
	c := &Ctrl{
		engine:        engine,
		cfg:           cfg,
		name:          cfg.Name,
		port:          xbar.Port(cfg.Name),
		xbar:          xbar,
		mem:           mem,
		l2:            cache.New(cfg.L2),
		mshr:          cache.NewMSHR(cfg.MSHRs),
		lines:         newLineTab(cfg.L2.IndexShift, uint64(cfg.Slice)),
		wb:            newLineMap(wbSlots),
		remotePending: make(map[memsys.Addr][]*memsys.Request),
	}
	if cfg.L1 != nil {
		c.l1 = cache.New(*cfg.L1)
	}
	mem.AddPeer(c)
	return c
}

// Name returns the controller's network port name.
func (c *Ctrl) Name() string { return c.name }

// Release gives the controller's cache arrays, line-table pages and
// writeback-buffer slots to their free lists (see freelist.List). Only
// the machine's owner may call it, after its last read; afterwards only
// the counters stay readable.
func (c *Ctrl) Release() {
	if c.l1 != nil {
		c.l1.Release()
	}
	c.l2.Release()
	c.lines.release()
	c.wb.release()
}

// CtrlCounters are a cache controller's protocol event counts.
type CtrlCounters struct {
	ProbesReceived, WritebacksSent, PushesReceived, DirectStores uint64
	RemoteLoads, MSHRStalls, Upgrades, PushesOverflowed          uint64
	FillBypasses, PushNacks, PushRetries                         uint64
}

// Rows lists the counters by name, in dump and snapshot order.
func (c *CtrlCounters) Rows() stats.Rows {
	return stats.Rows{
		{Name: "probes_received", N: &c.ProbesReceived},
		{Name: "writebacks_sent", N: &c.WritebacksSent},
		{Name: "pushes_received", N: &c.PushesReceived},
		{Name: "direct_stores", N: &c.DirectStores},
		{Name: "remote_loads", N: &c.RemoteLoads},
		{Name: "mshr_stalls", N: &c.MSHRStalls},
		{Name: "upgrades", N: &c.Upgrades},
		{Name: "pushes_overflowed", N: &c.PushesOverflowed},
		{Name: "fill_bypasses", N: &c.FillBypasses},
		{Name: "push_nacks", N: &c.PushNacks},
		{Name: "push_retries", N: &c.PushRetries},
	}
}

// Get returns the named counter; an undeclared name panics.
func (c *CtrlCounters) Get(name string) uint64 { return c.Rows().Get(name) }

// Counters exposes the controller's counters.
func (c *Ctrl) Counters() *CtrlCounters { return &c.ctr }

// L2Cache exposes the protocol-level array (for statistics: accesses,
// hits, misses, evictions).
func (c *Ctrl) L2Cache() *cache.Cache { return c.l2 }

// WBBufLen returns the number of in-flight buffered writebacks
// (telemetry gauge).
func (c *Ctrl) WBBufLen() int { return c.wb.len() }

// MSHRInUse returns the number of allocated MSHR entries (telemetry
// gauge).
func (c *Ctrl) MSHRInUse() int { return c.mshr.Len() }

// State returns the protocol state of a line (test hook).
func (c *Ctrl) State(a memsys.Addr) State {
	st, _, ok := c.l2.Probe(a)
	if !ok {
		return I
	}
	return st
}

// Ver returns the resident version of a line, or 0: also for a line
// another slice owns. It never allocates.
func (c *Ctrl) Ver(a memsys.Addr) uint64 { return c.lines.get(memsys.LineAlign(a)) }

// AttachDirectStore wires the CPU-side push path: the dedicated link
// and the slice-routing function (paper §III-G).
func (c *Ctrl) AttachDirectStore(link interconnect.DirectPort, target func(memsys.Addr) *Ctrl) {
	c.directLink = link
	c.pushTarget = target
}

// AttachObserver connects the controller to the observability layer:
// protocol sends, state transitions and pushes record against the
// controller's component; demand accesses on the arrays flow through
// cache access hooks. gpuSide marks GPU L2 slices, whose accesses feed
// the sampler's miss-rate window and the push-to-first-use histogram.
func (c *Ctrl) AttachObserver(o *obs.Observer, gpuSide bool) {
	if o == nil {
		return
	}
	c.obs = o
	c.obsID = o.Component(c.name)
	c.obsMem = o.Component(c.mem.Name())
	o.SetStateNamer(func(s uint8) string { return StateName(State(s)) })
	c.l2.SetAccessHook(func(a memsys.Addr, hit bool) {
		o.CacheAccess(c.engine.Now(), c.obsID, a, 2, hit, gpuSide)
	})
	if c.l1 != nil {
		c.l1.SetAccessHook(func(a memsys.Addr, hit bool) {
			o.CacheAccess(c.engine.Now(), c.obsID, a, 1, hit, gpuSide)
		})
	}
}

// msgClassFor maps a protocol request type to its obs message class.
func msgClassFor(t ReqType) obs.MsgClass {
	switch t {
	case GETS:
		return obs.MsgGETS
	case GETX:
		return obs.MsgGETX
	case WB:
		return obs.MsgWB
	default:
		return obs.MsgRemoteLoad
	}
}

// obsSend records a request-message send to the memory controller.
func (c *Ctrl) obsSend(msg ReqMsg) {
	c.obs.Msg(c.engine.Now(), c.obsID, msgClassFor(msg.Type), msg.Addr, c.obsMem)
}

// obsState records a protocol state transition on a line.
func (c *Ctrl) obsState(line memsys.Addr, from, to State) {
	if from != to {
		c.obs.StateChange(c.engine.Now(), c.obsID, line, uint8(from), uint8(to))
	}
}

// Access submits a demand load or store. The controller's single port
// accepts one request per tick; overlapping submissions queue. Injected
// controller stalls (chaos runs) extend the port occupancy.
func (c *Ctrl) Access(req *memsys.Request) {
	now := c.engine.Now()
	start := now
	if c.portFree > start {
		start = c.portFree
	}
	start += c.stallTicks()
	c.portFree = start + 1
	pk := c.mem.pkt(pkProcess)
	pk.c, pk.req = c, req
	c.engine.ScheduleArgAt(start, runPkt, pk)
}

// process runs a newly submitted access against the arrays, counting
// one demand access (hit or miss).
func (c *Ctrl) process(req *memsys.Request) { c.processReq(req, false) }

// processQuiet re-runs a request that was already counted and then
// stalled or replayed: the arrays are consulted without statistics so
// retries stay invisible to the access/miss counters (Ruby-style
// accounting).
func (c *Ctrl) processQuiet(req *memsys.Request) { c.processReq(req, true) }

func (c *Ctrl) processReq(req *memsys.Request, quiet bool) {
	lookupL2 := c.l2.Lookup
	if quiet {
		lookupL2 = c.l2.Touch
	}
	line := memsys.LineAlign(req.Addr)
	switch req.Type {
	case memsys.Load, memsys.IFetch:
		if c.l1 != nil {
			hit := false
			if quiet {
				_, hit = c.l1.Touch(line)
			} else {
				_, hit = c.l1.Lookup(line)
			}
			if hit {
				req.Ver = c.lines.get(line)
				c.complete(req, c.cfg.L1HitLat)
				return
			}
		}
		if st, hit := lookupL2(line); hit && Transition(st, EvLoadHit).OK {
			c.fillL1(line)
			req.Ver = c.lines.get(line)
			c.complete(req, c.cfg.L1HitLat+c.cfg.L2HitLat)
			return
		}
		c.missPath(req, line, false)
	case memsys.Store:
		st, hit := lookupL2(line)
		switch out := Transition(st, EvStoreHit); {
		case hit && out.OK:
			// MM commits in place; M is the paper's silent M→MM
			// upgrade (stores are not allowed in M, but no other node
			// holds a copy, so the controller upgrades locally).
			c.commitStore(line, st, out.Next, req, c.cfg.L1HitLat+c.cfg.L2HitLat)
		case hit: // S or O: must invalidate other copies first
			c.ctr.Upgrades++
			c.missPath(req, line, true)
		default:
			c.missPath(req, line, true)
		}
	case memsys.RemoteStore:
		c.processDirectStore(req, line)
	default:
		panic(fmt.Sprintf("coherence %s: unknown access type %v", c.name, req.Type))
	}
}

// commitStore commits a store holding write permission in state st,
// moving the line to next (the silent M→MM upgrade when they differ).
func (c *Ctrl) commitStore(line memsys.Addr, st, next State, req *memsys.Request, lat sim.Tick) {
	if next != st {
		c.l2.SetState(line, next)
		c.obsState(line, st, next)
	}
	c.l2.SetDirty(line, true)
	c.lines.set(line, req.Ver)
	if c.l1 != nil && c.l1.Contains(line) {
		c.l1.SetDirty(line, true)
	}
	c.complete(req, lat)
}

// fillL1 mirrors a line into the L1 shadow. L1 victims are silent: the
// L1 is write-through, so the L2 always has the data and the dirty bit.
func (c *Ctrl) fillL1(line memsys.Addr) {
	if c.l1 == nil {
		return
	}
	c.l1.Insert(line, 1, false)
}

func (c *Ctrl) complete(req *memsys.Request, lat sim.Tick) {
	c.engine.ScheduleArg(lat, completeReq, req)
}

// sendReq ships a request message to the memory controller over the
// shared network via a pooled packet.
func (c *Ctrl) sendReq(msg ReqMsg, size int) {
	c.obsSend(msg)
	pk := c.mem.pkt(pkRecvReq)
	pk.body = reqBody(msg)
	c.xbar.Send(c.port, c.mem.port, size, runPkt, pk)
}

// missPath sends the demand miss into the protocol.
func (c *Ctrl) missPath(req *memsys.Request, line memsys.Addr, wantX bool) {
	if b := c.wb.find(line); b != nil && !wantX && !b.stale() {
		// The line is in our own writeback buffer (dirty eviction or
		// overflowed push still in flight to memory): loads are served
		// locally — we are still the data source until memory
		// acknowledges. Stores must NOT reclaim the line silently:
		// another agent may hold a shared copy granted from this very
		// buffer, so write permission requires the full GETX
		// invalidation round (a silent reclaim here was an SWMR
		// violation found by the model checker). Stale entries (the
		// line was since granted exclusively elsewhere) fall through
		// for loads too.
		req.Ver = b.ver()
		c.complete(req, c.cfg.L2HitLat)
		return
	}
	if e, ok := c.mshr.Lookup(line); ok {
		e.Waiters = append(e.Waiters, req)
		if wantX {
			e.WantExclusive = true
		}
		return
	}
	if c.mshr.Full() {
		c.ctr.MSHRStalls++
		c.stalled.push(req)
		return
	}
	e, _ := c.mshr.Allocate(line)
	e.Waiters = append(e.Waiters, req)
	e.WantExclusive = wantX
	rtype := GETS
	if wantX {
		rtype = GETX
	}
	c.sendReq(ReqMsg{Type: rtype, Addr: line, From: c.port}, interconnect.CtrlMsgBytes)
	if c.cfg.OnDemandMiss != nil && req.Done != nil {
		c.cfg.OnDemandMiss(line)
	}
}

// Prefetch injects a read fill for a line without a demand requester:
// no access/hit/miss is counted and no waiter completes — the line just
// arrives. Already-resident and already-pending lines are skipped, as
// is a full MSHR file (prefetches never stall demand traffic).
func (c *Ctrl) Prefetch(line memsys.Addr) {
	line = memsys.LineAlign(line)
	if c.l2.Contains(line) {
		return
	}
	if _, pending := c.mshr.Lookup(line); pending {
		return
	}
	if c.mshr.Full() {
		return
	}
	e, _ := c.mshr.Allocate(line)
	_ = e
	c.sendReq(ReqMsg{Type: GETS, Addr: line, From: c.port}, interconnect.CtrlMsgBytes)
}

// RemoteLoad submits an uncacheable load to the direct-store region
// (the CPU reading GPU-homed data back, e.g. kernel results). Data is
// fetched from wherever it lives but never installed locally.
func (c *Ctrl) RemoteLoad(req *memsys.Request) {
	now := c.engine.Now()
	start := now
	if c.portFree > start {
		start = c.portFree
	}
	c.portFree = start + 1
	pk := c.mem.pkt(pkRemoteLoad)
	pk.c, pk.req = c, req
	c.engine.ScheduleArgAt(start, runPkt, pk)
}

// remoteLoadStart runs a remote load once its port slot arrives.
func (c *Ctrl) remoteLoadStart(req *memsys.Request) {
	line := memsys.LineAlign(req.Addr)
	c.ctr.RemoteLoads++
	waiting := c.remotePending[line]
	c.remotePending[line] = append(waiting, req)
	if len(waiting) > 0 {
		return // request already in flight
	}
	c.sendReq(ReqMsg{Type: RemoteLoad, Addr: line, From: c.port}, interconnect.CtrlMsgBytes)
}

// processDirectStore performs the remote-store transition of Fig. 3:
// whatever state the line held locally goes to I, and the data travels
// over the dedicated network to the owning GPU L2 slice as a PUTX.
//
// Precondition (enforced by the TLB in a real system, and by the cpu
// package here): a line in the direct-store region is *only* ever
// written via this path. Pushes bypass the ordering point, which is
// sound precisely because the reserved region "can never be cached on
// the CPU side" (§III-E) — concurrently issuing cacheable GETX stores
// to the same line would race the push and is outside the protocol.
func (c *Ctrl) processDirectStore(req *memsys.Request, line memsys.Addr) {
	if c.directLink == nil || c.pushTarget == nil {
		panic(fmt.Sprintf("coherence %s: direct store issued but no direct network attached", c.name))
	}
	c.ctr.DirectStores++
	// Remote store from I/S/M/MM always ends in I locally (bold
	// transitions in Fig. 3) — one row of the shared table, consulted so
	// tablecover ties this handler to its declared transitions. The
	// direct region is never CPU-cached in translated programs, so the
	// non-I rows are defensive.
	if c.l1 != nil {
		c.l1.Invalidate(line)
	}
	if st, _, hit := c.l2.Probe(line); hit {
		out := Transition(st, EvDirectStore)
		if !out.OK {
			panic(fmt.Sprintf("coherence %s: direct store illegal from %s", c.name, StateName(st)))
		}
		c.obsState(line, st, out.Next)
		c.l2.Invalidate(line)
		c.lines.clear(line)
	}
	target := c.pushTarget(line)
	if target == nil {
		panic(fmt.Sprintf("coherence %s: no push target for %#x", c.name, uint64(line)))
	}
	p := PutxMsg{Addr: line, Ver: req.Ver, From: c.port}
	if c.obs != nil {
		to := c.obs.Component(target.name)
		now := c.engine.Now()
		c.obs.Push(now, c.obsID, line, to)
		c.obs.Msg(now, c.obsID, obs.MsgPutx, line, to)
	}
	if c.resilient {
		// Resilient push (chaos runs): sequence-numbered, acknowledged,
		// retried with exponential backoff on loss or NACK. The store
		// completes when the ack arrives, not when the PUTX leaves.
		c.sendResilientPush(p, req, target)
		return
	}
	pk := c.mem.pkt(pkRecvPutx)
	pk.c, pk.body, pk.req = target, putxBody(p), req
	c.sendPutx(target, runPkt, pk)
}

// sendPutx sends a push's PUTX to target and fires fn(arg, arrival)
// when it lands. The fault-free and the resilient push differ only in
// fn and arg.
func (c *Ctrl) sendPutx(target *Ctrl, fn func(arg any, now sim.Tick), arg any) {
	if c.cfg.DirectOverXbar {
		// Ablation: no dedicated network — the push rides the shared
		// coherence crossbar and contends with everything else.
		if c.cfg.DirectGetx {
			c.xbar.Send(c.port, target.port, interconnect.CtrlMsgBytes, nil, nil)
		}
		c.xbar.Send(c.port, target.port, interconnect.DataMsgBytes, fn, arg)
		return
	}
	if c.cfg.DirectGetx {
		// The paper's CPU "will issue GETX command" before the data
		// travels; on the dedicated network this is a control flit
		// ahead of the PUTX.
		c.directLink.Send(interconnect.CtrlMsgBytes, nil, nil)
	}
	c.directLink.Send(interconnect.DataMsgBytes, fn, arg)
}

// ReceivePutx installs a pushed line (GPU L2 slice side): the blue
// dashed I→MM transition of Fig. 3. A push supersedes any fill in
// flight for the same line. When the target set is full of valid
// lines, the push overflows to DRAM instead of evicting — the paper's
// "if the GPU L2 cache is full, the system then writes data to DRAM" —
// so a working set larger than the L2 keeps its oldest pushed prefix
// resident rather than churning every line through the cache.
func (c *Ctrl) ReceivePutx(p PutxMsg, req *memsys.Request) {
	if p.Seq != 0 {
		// Resilient protocol: req stays with the sender (the push may
		// be retried or duplicated); delivery is acknowledged instead.
		c.receivePutxResilient(p)
		return
	}
	c.applyPutx(p)
	c.complete(req, c.cfg.L2HitLat)
}

// applyPutx performs the install itself, shared between the
// fire-and-forget and resilient paths.
func (c *Ctrl) applyPutx(p PutxMsg) {
	c.ctr.PushesReceived++
	line := p.Addr
	e, pending := c.mshr.Lookup(line)
	if !pending && c.l2.SetFull(line) {
		c.ctr.PushesOverflowed++
		c.writeBack(line, p.Ver)
		return
	}
	cur, _, _ := c.l2.Probe(line)
	r := InstallPush(cur, pending, c.cfg.PushWriteThrough)
	if !r.OK {
		panic(fmt.Sprintf("coherence %s: push install illegal from %s", c.name, StateName(cur)))
	}
	if r.Supersede {
		e.Superseded = true
	}
	c.installLine(line, r.Next, r.Dirty, p.Ver)
	c.obs.PushInstalled(c.engine.Now(), line)
	if r.WriteThrough {
		c.writeBack(line, p.Ver)
	}
}

// installLine allocates a line, handling victim writeback.
func (c *Ctrl) installLine(line memsys.Addr, st State, dirty bool, ver uint64) {
	v, evicted := c.l2.Insert(line, st, dirty)
	c.lines.set(line, ver)
	c.obsState(line, I, st)
	if !evicted {
		return
	}
	vout := Transition(State(v.State), EvEvict)
	if !vout.OK {
		panic(fmt.Sprintf("coherence %s: evicting %#x from illegal state %s", c.name, uint64(v.Addr), StateName(State(v.State))))
	}
	c.obsState(v.Addr, State(v.State), vout.Next)
	if c.l1 != nil {
		c.l1.Invalidate(v.Addr)
	}
	vv := c.lines.get(v.Addr)
	c.lines.clear(v.Addr)
	if v.Dirty {
		c.ctr.WritebacksSent++
		c.writeBack(v.Addr, vv)
	}
}

// writebackDone clears the writeback buffer entry once memory has
// committed it, if the commit is for the buffered version.
func (c *Ctrl) writebackDone(line memsys.Addr, ver uint64) {
	if b, ok := c.wb.get(line); WBCommitClears(ok, b.ver(), ver) {
		c.wb.del(line)
	}
}

// writeBack sends a writeback to memory, buffering it until memory
// commits. Overwriting an older buffer entry (re-fetch and re-evict)
// also clears any staleness: the new data is current again.
func (c *Ctrl) writeBack(line memsys.Addr, ver uint64) {
	c.wb.put(line, bufferedWB(ver))
	c.sendReq(ReqMsg{Type: WB, Addr: line, From: c.port, Ver: ver}, interconnect.DataMsgBytes)
}

// receiveProbe answers the memory controller's probe after the array
// lookup delay, plus any injected controller stall.
func (c *Ctrl) receiveProbe(p ProbeMsg) {
	c.ctr.ProbesReceived++
	pk := c.mem.pkt(pkAnswerProbe)
	pk.c, pk.body = c, probeBody(p)
	c.engine.ScheduleArg(c.cfg.L2HitLat+c.stallTicks(), runPkt, pk)
}

func (c *Ctrl) answerProbe(p ProbeMsg) {
	line := p.Addr
	ver := c.lines.get(line)
	st, dirty, _ := c.l2.Probe(line) // I and clean when absent
	ctx := ProbeCtx{St: st, Dirty: dirty}
	b := c.wb.find(line)
	if b != nil {
		ctx.WB = WBLive
		if b.stale() {
			ctx.WB = WBStale
		}
		ctx.LiveOlder = ver < b.ver()
	}
	r := AnswerProbe(ctx, p.Kind)
	ack := AckMsg{Addr: line, From: c.port, HadData: r.HadData, Present: r.Present, Dirty: r.Dirty}
	switch {
	case r.FromWB:
		if r.StaleWB {
			*b |= wbStale
		}
		ack.Ver = b.ver()
	case r.HadData:
		ack.Ver = ver
	}
	switch {
	case r.Next == st:
		// No state change (answered from the writeback buffer, O/S
		// survive PrbShare, everything survives PrbSnoop).
	case r.Next == I:
		if c.hooks != nil && c.hooks.SkipInvalidate != nil && c.hooks.SkipInvalidate() {
			// Injected protocol mutation: acknowledge the probe but keep
			// the copy. The requester will install exclusive while this
			// cache still holds the line — exactly the silent bug class
			// the stress harness's invariant and oracle checks must
			// catch.
			break
		}
		if c.l1 != nil {
			c.l1.Invalidate(line)
		}
		c.l2.Invalidate(line)
		c.lines.clear(line)
		c.obsState(line, st, I)
	default:
		c.l2.SetState(line, r.Next)
		c.obsState(line, st, r.Next)
	}
	if r.HadData {
		// 3-hop transfer: the owner sends the line straight to the
		// requester; the memory controller only gets a control ack.
		c.supplyToRequester(p, DataMsg{Addr: line, Ver: ack.Ver, Grant: r.Grant, Owned: r.Owned})
	}
	c.sendAck(ack)
}

// supplyToRequester sends an owner's data straight to the requester.
func (c *Ctrl) supplyToRequester(p ProbeMsg, d DataMsg) {
	requester := p.Requester
	if c.obs != nil {
		c.obs.Msg(c.engine.Now(), c.obsID, obs.MsgData, p.Addr, c.obs.Component(c.mem.peerName(requester)))
	}
	pk := c.mem.pkt(pkRecvData)
	pk.c, pk.body = c.mem.peers[requester], dataBody(d)
	c.xbar.Send(c.port, requester, interconnect.DataMsgBytes, runPkt, pk)
}

func (c *Ctrl) sendAck(ack AckMsg) {
	c.obs.Msg(c.engine.Now(), c.obsID, obs.MsgAck, ack.Addr, c.obsMem)
	pk := c.mem.pkt(pkRecvAck)
	pk.body = ackBody(ack)
	c.xbar.Send(c.port, c.mem.port, interconnect.CtrlMsgBytes, runPkt, pk)
}

// receiveData completes an outstanding miss (or remote load).
func (c *Ctrl) receiveData(d DataMsg) {
	grant := d.Grant
	line := d.Addr
	if grant == I {
		// Uncacheable remote-load data: complete waiters, no install.
		waiters := c.remotePending[line]
		delete(c.remotePending, line)
		for _, w := range waiters {
			w.Ver = d.Ver
			w.Complete(c.engine.Now())
		}
		c.unblock(line)
		return
	}
	e, ok := c.mshr.Lookup(line)
	if !ok {
		panic(fmt.Sprintf("coherence %s: data for line %#x with no MSHR", c.name, uint64(line)))
	}
	superseded := e.Superseded
	bypass := false
	if !superseded && c.cfg.BypassDirtyVictim {
		v, wouldEvict := c.l2.PeekVictim(line)
		bypass = wouldEvict && v.Dirty
	}
	waiters := c.mshr.Free(line)
	prev, _, _ := c.l2.Probe(line)
	f := ApplyFill(prev, grant, d.Owned, superseded, bypass)
	switch f.Action {
	case FillBypass:
		c.ctr.FillBypasses++
	case FillInstall:
		if !f.OK {
			panic(fmt.Sprintf("coherence %s: fill %s illegal from %s", c.name, StateName(grant), StateName(prev)))
		}
		c.installLine(line, f.Next, f.Dirty, d.Ver)
	}
	c.unblock(line)
	// Complete waiters straight from the fill (no second array lookup —
	// MSHR-merged requests are one L2 access, matching Ruby's
	// accounting).
	fillVer := d.Ver
	for _, w := range waiters {
		st, _, ok := c.l2.Probe(line)
		if w.Type == memsys.Load || w.Type == memsys.IFetch {
			if ok {
				w.Ver = c.lines.get(line)
				c.fillL1(line)
			} else {
				w.Ver = fillVer
			}
			c.complete(w, 0)
			continue
		}
		switch act, next := StoreAfterFill(st, ok, f); act {
		case StoreCommit:
			c.commitStore(line, st, next, w, 0)
		case StoreWriteThrough:
			fillVer = w.Ver
			c.writeBack(line, w.Ver)
			c.complete(w, 0)
		default:
			// Vanished line or insufficient grant: replay.
			pk := c.mem.pkt(pkProcessQuiet)
			pk.c, pk.req = c, w
			c.engine.ScheduleArg(0, runPkt, pk)
		}
	}
	c.drainStalled()
}

func (c *Ctrl) unblock(line memsys.Addr) {
	c.obs.Msg(c.engine.Now(), c.obsID, obs.MsgUnblock, line, c.obsMem)
	pk := c.mem.pkt(pkRecvUnblock)
	pk.body.addr = line
	c.xbar.Send(c.port, c.mem.port, interconnect.CtrlMsgBytes, runPkt, pk)
}

// drainStalled releases stalled requests only while they can make
// progress: the line is now resident, has an in-flight fill to merge
// onto, or a free MSHR exists. Dumping the whole queue on every fill
// would reprocess (and re-stall) most of it — quadratic work and
// inflated statistics.
func (c *Ctrl) drainStalled() {
	for c.stalled.len() > 0 {
		req := c.stalled.front()
		line := memsys.LineAlign(req.Addr)
		_, pending := c.mshr.Lookup(line)
		if !pending && !c.l2.Contains(line) && c.mshr.Full() {
			return
		}
		c.stalled.pop()
		pk := c.mem.pkt(pkProcessQuiet)
		pk.c, pk.req = c, req
		c.engine.ScheduleArg(0, runPkt, pk)
	}
}

// reqQueue is a FIFO of requests that reuses its backing array: pop
// advances a head index, and a push that finds the array full slides
// the live entries down to the front before growing it.
type reqQueue struct {
	q    []*memsys.Request
	head int
}

func (r *reqQueue) len() int { return len(r.q) - r.head }

func (r *reqQueue) front() *memsys.Request { return r.q[r.head] }

func (r *reqQueue) push(req *memsys.Request) {
	if len(r.q) == cap(r.q) && r.head > 0 {
		n := copy(r.q, r.q[r.head:])
		clear(r.q[n:])
		r.q, r.head = r.q[:n], 0
	}
	r.q = append(r.q, req)
}

func (r *reqQueue) pop() {
	r.q[r.head] = nil
	r.head++
	if r.head == len(r.q) {
		r.q, r.head = r.q[:0], 0
	}
}

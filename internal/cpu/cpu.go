// Package cpu models the CPU side of the integrated system: an in-order
// timing core that executes a memory-operation stream through its TLB
// and cache hierarchy. Loads block the core; stores retire into a store
// buffer that drains in the background — which is what lets direct
// store trade increased store latency for reduced GPU load latency
// without hurting the CPU (paper §III-B).
//
// The TLB's direct-store detector routes accesses: stores whose virtual
// address falls in the reserved region are issued as remote stores
// (pushes over the dedicated network); loads from that region are
// uncacheable remote loads.
package cpu

import (
	"fmt"

	"dstore/internal/coherence"
	"dstore/internal/memsys"
	"dstore/internal/mmu"
	"dstore/internal/obs"
	"dstore/internal/sim"
	"dstore/internal/stats"
)

// Op is one instruction's memory behaviour. Gap models the compute
// cycles preceding the operation. A Fence op drains the store buffer
// before the core proceeds (the ordering point a producer needs before
// signalling a consumer).
type Op struct {
	Type  memsys.AccessType
	Addr  memsys.Addr // virtual
	Gap   sim.Tick
	Fence bool
}

// OpStream supplies the core's operation sequence.
type OpStream interface {
	// Next returns the next operation; ok is false when the stream is
	// exhausted.
	Next() (op Op, ok bool)
}

// SliceStream adapts a slice of ops into an OpStream.
type SliceStream struct {
	ops []Op
	i   int
}

// NewSliceStream wraps ops.
func NewSliceStream(ops []Op) *SliceStream { return &SliceStream{ops: ops} }

// Next implements OpStream.
func (s *SliceStream) Next() (Op, bool) {
	if s.i >= len(s.ops) {
		return Op{}, false
	}
	op := s.ops[s.i]
	s.i++
	return op, true
}

// LineStream is a CPU pass over a line sequence: one access of type
// Type to each of Lines in order, each after Gap ticks of compute. It
// yields the ops that a slice of Op{Type: Type, Addr: line, Gap: Gap}
// would, without writing them out.
type LineStream struct {
	Lines []memsys.Addr
	Type  memsys.AccessType
	Gap   sim.Tick
	i     int
}

// Next implements OpStream.
func (s *LineStream) Next() (Op, bool) {
	if s.i >= len(s.Lines) {
		return Op{}, false
	}
	op := Op{Type: s.Type, Addr: s.Lines[s.i], Gap: s.Gap}
	s.i++
	return op, true
}

// VersionSource hands out store version numbers; shared between CPU and
// GPU so the oracle's "latest write" is globally ordered by issue.
type VersionSource struct{ next uint64 }

// Next returns a fresh version.
func (v *VersionSource) Next() uint64 {
	v.next++
	return v.next
}

// Config describes the core.
type Config struct {
	Name string
	// StoreBufferEntries bounds in-flight retired stores.
	StoreBufferEntries int
	// DirectStoreEnabled routes detected direct-region stores through
	// the push path. Off in the CCSM baseline (where nothing is
	// allocated in the region anyway, but the switch also supports the
	// paper's §III-H co-existence discussion).
	DirectStoreEnabled bool
}

// Core is the in-order CPU core.
type Core struct {
	engine *sim.Engine
	cfg    Config
	tlb    *mmu.TLB
	ctrl   *coherence.Ctrl
	vers   *VersionSource

	sbInFlight int
	sbWaiting  bool

	// Observability (AttachObserver): nil in normal operation.
	obs   *obs.Observer
	obsID obs.CompID

	stream OpStream
	onDone func()

	running bool

	// In-order pipeline state: exactly one operation moves through
	// step → issue → execute at a time, so the current op and its
	// translation live in fields and the stage callbacks are created
	// once (stepFn et al), keeping the issue path allocation-free.
	curOp     Op
	curPA     memsys.Addr
	curDirect bool
	stepFn    func()
	fenceFn   func()
	issueFn   func()
	executeFn func()

	// loadReq is the single reusable load request — loads block the
	// core, so at most one is outstanding. Stores retire into the store
	// buffer and draw pooled carriers from storePool.
	loadReq   memsys.Request
	storePool []*cpuStore

	ctr        Counters
	finishedAt sim.Tick
}

// New builds a core over its TLB and cache controller.
func New(engine *sim.Engine, cfg Config, tlb *mmu.TLB, ctrl *coherence.Ctrl, vers *VersionSource) *Core {
	if cfg.StoreBufferEntries <= 0 {
		panic(fmt.Sprintf("cpu %s: non-positive store buffer", cfg.Name))
	}
	c := &Core{
		engine: engine,
		cfg:    cfg,
		tlb:    tlb,
		ctrl:   ctrl,
		vers:   vers,
	}
	c.stepFn = c.step
	c.fenceFn = c.fence
	c.issueFn = c.issue
	c.executeFn = c.execute
	c.loadReq.Type = memsys.Load
	c.loadReq.Done = func(sim.Tick) { c.step() }
	return c
}

// Counters are the core's memory-operation and stall counts.
type Counters struct {
	Loads, Stores, RemoteStores, RemoteLoads uint64
	StoreBufferStallTicks, FenceStallTicks   uint64
}

// Rows lists the counters by name, in dump and snapshot order.
func (c *Counters) Rows() stats.Rows {
	return stats.Rows{
		{Name: "loads", N: &c.Loads},
		{Name: "stores", N: &c.Stores},
		{Name: "remote_stores", N: &c.RemoteStores},
		{Name: "remote_loads", N: &c.RemoteLoads},
		{Name: "store_buffer_stall_ticks", N: &c.StoreBufferStallTicks},
		{Name: "fence_stall_ticks", N: &c.FenceStallTicks},
	}
}

// Get returns the named counter; an undeclared name panics.
func (c *Counters) Get(name string) uint64 { return c.Rows().Get(name) }

// Counters exposes the core's counters.
func (c *Core) Counters() *Counters { return &c.ctr }

// AttachObserver connects the core to the observability layer: store
// completions (issue to coherence completion, including the direct-
// store push round) feed the CPU store-latency histogram.
func (c *Core) AttachObserver(o *obs.Observer) {
	if o == nil {
		return
	}
	c.obs = o
	c.obsID = o.Component(c.cfg.Name)
}

// FinishedAt returns the tick the last run completed.
func (c *Core) FinishedAt() sim.Tick { return c.finishedAt }

// Run executes the stream; done fires when every op has issued and all
// stores have drained. A core runs one stream at a time.
func (c *Core) Run(stream OpStream, done func()) {
	if c.running {
		panic(fmt.Sprintf("cpu %s: Run while already running", c.cfg.Name))
	}
	c.running = true
	c.stream = stream
	c.onDone = done
	c.engine.Schedule(0, c.step)
}

// cpuStore carries one store-buffer entry from issue to coherence
// completion. Pooled per core; the Done callback is created once per
// object.
type cpuStore struct {
	c   *Core
	req memsys.Request
}

// done retires a store-buffer entry and recycles its carrier.
func (s *cpuStore) done(now sim.Tick) {
	c := s.c
	c.obs.Latency(now, c.obsID, obs.HistCPUStoreLat, s.req.Addr, now-s.req.Issued)
	c.sbInFlight--
	c.storePool = append(c.storePool, s)
	if c.sbWaiting && c.sbInFlight == 0 {
		c.sbWaiting = false
		c.finishWhenDrained()
	}
}

// step fetches and executes the next operation.
func (c *Core) step() {
	op, ok := c.stream.Next()
	if !ok {
		c.finishWhenDrained()
		return
	}
	if op.Fence {
		c.engine.Schedule(op.Gap, c.fenceFn)
		return
	}
	c.curOp = op
	c.engine.Schedule(op.Gap, c.issueFn)
}

// fence stalls until the store buffer drains, then proceeds.
func (c *Core) fence() {
	if c.sbInFlight > 0 {
		c.ctr.FenceStallTicks++
		c.engine.Schedule(1, c.fenceFn)
		return
	}
	c.step()
}

func (c *Core) issue() {
	pa, lat, direct, err := c.tlb.Translate(c.curOp.Addr)
	if err != nil {
		panic(fmt.Sprintf("cpu %s: translation failed: %v", c.cfg.Name, err))
	}
	c.curPA, c.curDirect = pa, direct
	c.engine.Schedule(lat, c.executeFn)
}

// execute runs the current op against the hierarchy using its physical
// address; the whole memory system below the TLBs operates on physical
// addresses.
func (c *Core) execute() {
	op, pa, direct := c.curOp, c.curPA, c.curDirect
	switch op.Type {
	case memsys.Load:
		// Loads block the core, so the single reusable request is free.
		c.loadReq.Addr = pa
		c.loadReq.Issued = c.engine.Now()
		c.loadReq.Ver = 0
		if direct {
			// Uncacheable read from the GPU-homed region.
			c.ctr.RemoteLoads++
			c.ctrl.RemoteLoad(&c.loadReq)
			return
		}
		c.ctr.Loads++
		c.ctrl.Access(&c.loadReq)
	case memsys.Store:
		if c.sbInFlight >= c.cfg.StoreBufferEntries {
			// Store buffer full: retry each tick until a slot frees.
			c.ctr.StoreBufferStallTicks++
			c.engine.Schedule(1, c.executeFn)
			return
		}
		c.sbInFlight++
		ver := c.vers.Next()
		ty := memsys.Store
		if direct && c.cfg.DirectStoreEnabled {
			ty = memsys.RemoteStore
			c.ctr.RemoteStores++
		} else {
			c.ctr.Stores++
		}
		var s *cpuStore
		if n := len(c.storePool); n > 0 {
			s = c.storePool[n-1]
			c.storePool = c.storePool[:n-1]
		} else {
			s = &cpuStore{c: c}
			s.req.Done = s.done
		}
		s.req.Type, s.req.Addr, s.req.Ver = ty, pa, ver
		s.req.Issued = c.engine.Now()
		c.ctrl.Access(&s.req)
		// Stores retire immediately; the next instruction proceeds.
		c.engine.Schedule(1, c.stepFn)
	default:
		panic(fmt.Sprintf("cpu %s: unsupported op type %v", c.cfg.Name, op.Type))
	}
}

func (c *Core) finishWhenDrained() {
	if c.sbInFlight > 0 {
		c.sbWaiting = true
		return
	}
	c.running = false
	c.finishedAt = c.engine.Now()
	if c.onDone != nil {
		done := c.onDone
		c.onDone = nil
		c.engine.Schedule(0, done)
	}
}

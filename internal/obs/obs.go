// Package obs is the simulator's observability layer: an event tracer,
// log-bucketed latency histograms and an epoch-windowed interval
// sampler, all recording against simulated time.
//
// Its trace ring (Ring) and Chrome trace-event writer (TraceWriter) are
// also the ones the fleet's span recorder, obs/dtrace, uses. Both are
// generic over the clock domain: the Observer records simulation ticks,
// dtrace records wall-clock nanoseconds, and the writer passes either
// through unconverted.
//
// The layer is strictly passive. Recording never schedules events,
// never mutates component state and never reads the wall clock, so a
// run produces byte-identical Results whether or not an Observer is
// attached, and two runs of the same (seed, configuration) produce
// byte-identical traces — on any sweep worker count, because each run
// owns a private Observer.
//
// It is also zero-overhead when disabled: every recording method is
// safe on a nil *Observer and returns immediately, so components hold
// a possibly-nil pointer and call unconditionally. The only engine-side
// coupling is sim.Engine's advance hook, which core installs solely
// when the interval sampler is enabled.
package obs

import (
	"fmt"

	"dstore/internal/memsys"
	"dstore/internal/sim"
)

// Clock reads host time in nanoseconds. The determinism contract bans
// wall-clock reads inside internal packages, so the closure is injected
// from cmd/ (which is exempt); internal code only ever calls it for
// host-side phase timing and dtrace span timestamps, never for
// simulation results. Tests inject stepped or constant clocks to pin
// exact output bytes.
type Clock func() uint64

// Options selects which pillars an Observer records. The zero value
// records nothing (but a nil *Observer is the cheaper way to disable).
type Options struct {
	// Trace enables the ring-buffer event tracer.
	Trace bool
	// TraceCap bounds the ring to the most recent TraceCap events;
	// earlier events are dropped (and counted). Zero means 1<<20.
	TraceCap int
	// Hist enables the latency histograms.
	Hist bool
	// TimeSeries enables the interval sampler. The sampler only
	// advances when core installs the engine advance hook.
	TimeSeries bool
	// Epoch is the sampler window in ticks. Zero means 100000.
	Epoch sim.Tick
}

// CompID identifies a registered component in trace events.
type CompID uint16

// EventKind classifies trace events.
type EventKind uint8

// Trace event kinds.
const (
	// EvMsg is a protocol message send; Arg is the MsgClass, A the
	// destination CompID.
	EvMsg EventKind = iota + 1
	// EvState is a coherence state transition; Arg packs from<<4|to.
	EvState
	// EvPush is a direct-store push leaving the CPU controller; A is
	// the destination CompID.
	EvPush
	// EvAccess is a cache demand access; Arg packs level<<1|hit.
	EvAccess
	// EvLat is a completed-access latency sample; Arg is the HistID, A
	// the duration in ticks.
	EvLat
)

// MsgClass classifies protocol messages for EvMsg events and the
// sampler's per-type message counts. The names mirror the coherence
// package without importing it (obs sits below coherence).
type MsgClass uint8

// Protocol message classes.
const (
	MsgGETS MsgClass = iota
	MsgGETX
	MsgWB
	MsgRemoteLoad
	MsgProbe
	MsgAck
	MsgData
	MsgGrant
	MsgUnblock
	MsgPutx
	NumMsgClasses
)

// String names the message class.
func (m MsgClass) String() string {
	switch m {
	case MsgGETS:
		return "GETS"
	case MsgGETX:
		return "GETX"
	case MsgWB:
		return "WB"
	case MsgRemoteLoad:
		return "RemoteLoad"
	case MsgProbe:
		return "Probe"
	case MsgAck:
		return "Ack"
	case MsgData:
		return "Data"
	case MsgGrant:
		return "Grant"
	case MsgUnblock:
		return "Unblock"
	case MsgPutx:
		return "PUTX"
	default:
		return fmt.Sprintf("MsgClass(%d)", uint8(m))
	}
}

// HistID names one of the built-in latency histograms.
type HistID uint8

// Built-in histograms.
const (
	// HistGPULoadLat is the GPU global-load latency: L1 hits at the hit
	// latency, misses from fill issue to data arrival. Direct store's
	// headline claim — the first-access miss latency disappears — shows
	// up here as mass moving out of the top buckets.
	HistGPULoadLat HistID = iota
	// HistCPUStoreLat is the CPU store completion latency (issue to
	// coherence completion), the cost direct store pays on the CPU side.
	HistCPUStoreLat
	// HistPushToUse is the push-to-first-use distance: ticks between a
	// pushed line installing in a GPU L2 slice and the first demand
	// access touching it. Short distances mean the push arrived just in
	// time; very long ones mean it aged in the cache.
	HistPushToUse
	// NumHists is the histogram count.
	NumHists
)

// String names the histogram.
func (h HistID) String() string {
	switch h {
	case HistGPULoadLat:
		return "gpu_load_latency"
	case HistCPUStoreLat:
		return "cpu_store_latency"
	case HistPushToUse:
		return "push_to_first_use"
	default:
		return fmt.Sprintf("HistID(%d)", uint8(h))
	}
}

// Event is one fixed-size trace record. The payload fields are packed
// so the ring buffer stays allocation-free after construction.
type Event struct {
	When sim.Tick
	Addr memsys.Addr
	// A is kind-specific: destination CompID for EvMsg/EvPush, the
	// duration for EvLat.
	A    uint64
	Kind EventKind
	// Arg is kind-specific: MsgClass, from<<4|to states, level<<1|hit,
	// or HistID.
	Arg  uint8
	Comp CompID
}

// gauge is one registered occupancy probe, sampled at epoch boundaries.
type gauge struct {
	name  string
	probe func() uint64
}

// Observer records trace events, histogram observations and interval
// samples for one simulated system. It is not safe for concurrent use;
// the event engine serialises all recording, and each run owns a
// private Observer (sweeps attach one per job).
type Observer struct {
	opt Options

	// Component registry.
	comps   []string
	compIDs map[string]CompID

	// ring holds the most recent trace events.
	ring Ring[Event]

	// State namer injected by the wiring layer (coherence's StateName),
	// so trace output uses protocol names without an import cycle.
	stateName func(uint8) string

	hists [NumHists]*Histogram
	// pushTick remembers when each pushed line installed, for the
	// push-to-first-use distance.
	pushTick map[memsys.Addr]sim.Tick

	sampler sampler
	gauges  []gauge
}

// New builds an Observer for one run.
func New(opt Options) *Observer {
	if opt.TraceCap <= 0 {
		opt.TraceCap = 1 << 20
	}
	if opt.Epoch <= 0 {
		opt.Epoch = 100_000
	}
	o := &Observer{opt: opt, compIDs: make(map[string]CompID)}
	if opt.Trace {
		o.ring = NewRing[Event](opt.TraceCap)
	}
	if opt.Hist {
		for i := range o.hists {
			o.hists[i] = NewHistogram(HistID(i).String())
		}
		o.pushTick = make(map[memsys.Addr]sim.Tick)
	}
	if opt.TimeSeries {
		o.sampler.epoch = opt.Epoch
	}
	return o
}

// Options returns the observer's configuration (nil-safe; a nil
// observer reports the zero Options).
func (o *Observer) Options() Options {
	if o == nil {
		return Options{}
	}
	return o.opt
}

// Component registers (or resolves) a component name and returns its
// stable ID. IDs are assigned in registration order, so a fixed wiring
// order yields identical IDs run-to-run. Nil-safe: returns 0.
func (o *Observer) Component(name string) CompID {
	if o == nil {
		return 0
	}
	if id, ok := o.compIDs[name]; ok {
		return id
	}
	id := CompID(len(o.comps))
	o.comps = append(o.comps, name)
	o.compIDs[name] = id
	return id
}

// CompName resolves an ID back to its name (nil-safe).
func (o *Observer) CompName(id CompID) string {
	if o == nil || int(id) >= len(o.comps) {
		return fmt.Sprintf("comp%d", id)
	}
	return o.comps[id]
}

// SetStateNamer injects the protocol-state naming function used by the
// trace exporters (nil-safe).
func (o *Observer) SetStateNamer(f func(uint8) string) {
	if o == nil {
		return
	}
	o.stateName = f
}

// stateStr names a protocol state via the injected namer.
func (o *Observer) stateStr(s uint8) string {
	if o.stateName != nil {
		return o.stateName(s)
	}
	return fmt.Sprintf("S%d", s)
}

// Events returns the recorded events in chronological order (oldest
// first). Nil-safe: returns nil.
func (o *Observer) Events() []Event {
	if o == nil {
		return nil
	}
	return o.ring.Snapshot()
}

// Dropped returns how many events the ring overwrote (nil-safe).
func (o *Observer) Dropped() uint64 {
	if o == nil {
		return 0
	}
	return o.ring.Dropped()
}

// Msg records a protocol message send and counts it for the sampler.
// Nil-safe.
func (o *Observer) Msg(now sim.Tick, from CompID, class MsgClass, addr memsys.Addr, to CompID) {
	if o == nil {
		return
	}
	if o.opt.TimeSeries && class < NumMsgClasses {
		o.sampler.cur.Msgs[class]++
	}
	if o.opt.Trace {
		o.ring.Add(Event{When: now, Kind: EvMsg, Comp: from, Arg: uint8(class), Addr: addr, A: uint64(to)})
	}
}

// StateChange records a coherence state transition on a line. Nil-safe.
func (o *Observer) StateChange(now sim.Tick, comp CompID, addr memsys.Addr, from, to uint8) {
	if o == nil || !o.opt.Trace {
		return
	}
	o.ring.Add(Event{When: now, Kind: EvState, Comp: comp, Arg: from<<4 | to&0xf, Addr: addr})
}

// Push records a direct-store push leaving the CPU controller. Nil-safe.
func (o *Observer) Push(now sim.Tick, from CompID, addr memsys.Addr, to CompID) {
	if o == nil || !o.opt.Trace {
		return
	}
	o.ring.Add(Event{When: now, Kind: EvPush, Comp: from, Addr: addr, A: uint64(to)})
}

// CacheAccess records a demand cache access (level 1 or 2) and, for GPU
// L2 slices (gpu=true), feeds the sampler's miss-rate window and the
// push-to-first-use histogram. Nil-safe.
func (o *Observer) CacheAccess(now sim.Tick, comp CompID, addr memsys.Addr, level uint8, hit, gpu bool) {
	if o == nil {
		return
	}
	if gpu && level == 2 {
		if o.opt.TimeSeries {
			o.sampler.cur.GPUL2Accesses++
			if !hit {
				o.sampler.cur.GPUL2Misses++
			}
		}
		if o.pushTick != nil {
			line := memsys.LineAlign(addr)
			if t0, ok := o.pushTick[line]; ok {
				delete(o.pushTick, line)
				o.hists[HistPushToUse].Observe(uint64(now - t0))
			}
		}
	}
	if o.opt.Trace {
		h := uint8(0)
		if hit {
			h = 1
		}
		o.ring.Add(Event{When: now, Kind: EvAccess, Comp: comp, Arg: level<<1 | h, Addr: addr})
	}
}

// PushInstalled marks a pushed line landing in a GPU L2 slice, starting
// its push-to-first-use clock. Nil-safe.
func (o *Observer) PushInstalled(now sim.Tick, addr memsys.Addr) {
	if o == nil || o.pushTick == nil {
		return
	}
	o.pushTick[memsys.LineAlign(addr)] = now
}

// Latency records a completed-access duration into histogram id and the
// trace. Nil-safe.
func (o *Observer) Latency(now sim.Tick, comp CompID, id HistID, addr memsys.Addr, d sim.Tick) {
	if o == nil {
		return
	}
	if o.opt.Hist && id < NumHists {
		o.hists[id].Observe(uint64(d))
	}
	if o.opt.Trace {
		o.ring.Add(Event{When: now, Kind: EvLat, Comp: comp, Arg: uint8(id), Addr: addr, A: uint64(d)})
	}
}

// Hist returns the built-in histogram for id, or nil when histograms
// are disabled. Nil-safe.
func (o *Observer) Hist(id HistID) *Histogram {
	if o == nil || id >= NumHists {
		return nil
	}
	return o.hists[id]
}

// RegisterGauge adds an occupancy probe sampled at every epoch
// boundary, in registration order. Nil-safe.
func (o *Observer) RegisterGauge(name string, probe func() uint64) {
	if o == nil || !o.opt.TimeSeries {
		return
	}
	o.gauges = append(o.gauges, gauge{name: name, probe: probe})
}

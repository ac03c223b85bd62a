// Package interconnect models the on-chip networks: point-to-point
// links with latency and serialisation bandwidth, and a crossbar with
// per-port arbitration. The direct-store proposal adds one dedicated
// link from the CPU L1 controller to the GPU L2 (paper §III-G); the
// baseline CCSM traffic rides the shared crossbar.
//
// Links carry a callback and its argument rather than typed messages:
// the coherence layer owns message semantics, the network owns timing.
// A send fires fn(arg, arrival) when the message arrives; a timing-only
// send passes a nil fn. Every transfer is counted (messages and bytes)
// so experiments can report coherence traffic.
package interconnect

import (
	"fmt"

	"dstore/internal/sim"
	"dstore/internal/stats"
)

// Standard simulated message sizes in bytes: a control message is a
// header; a data message is a header plus one cache line.
const (
	CtrlMsgBytes = 8
	DataMsgBytes = 8 + 128
)

// DirectPort is the send-side interface of a point-to-point channel.
// *Link is the real implementation; fault-injection wrappers (the chaos
// layer) satisfy it too, so the coherence layer's direct-store path can
// be wrapped without knowing about faults.
type DirectPort interface {
	Name() string
	// Send transmits size bytes, fires fn(arg, arrival) at arrival
	// unless fn is nil, and returns the arrival tick. Hot senders pass
	// a static function and a pooled argument, so a send allocates
	// nothing.
	Send(size int, fn func(arg any, now sim.Tick), arg any) sim.Tick
	Counters() *Counters
}

var _ DirectPort = (*Link)(nil)

// Counters are a network's traffic counts. Only a Ring counts hops, and
// only a Ring's rows list them.
type Counters struct {
	Messages, Bytes, Hops uint64
	listHops              bool
}

// Rows lists the counters by name, in dump and snapshot order.
func (c *Counters) Rows() stats.Rows {
	rs := stats.Rows{
		{Name: "messages", N: &c.Messages},
		{Name: "bytes", N: &c.Bytes},
	}
	if c.listHops {
		rs = append(rs, stats.Row{Name: "hops", N: &c.Hops})
	}
	return rs
}

// Get returns the named counter; an undeclared name panics.
func (c *Counters) Get(name string) uint64 { return c.Rows().Get(name) }

// Link is a unidirectional point-to-point channel with a fixed
// propagation latency and a serialisation bandwidth. Sends that overlap
// queue behind each other.
type Link struct {
	name         string
	engine       *sim.Engine
	latency      sim.Tick
	bytesPerTick int
	nextFree     sim.Tick

	ctr Counters
}

// NewLink builds a link. bytesPerTick <= 0 means infinite bandwidth
// (pure latency).
func NewLink(engine *sim.Engine, name string, latency sim.Tick, bytesPerTick int) *Link {
	return &Link{name: name, engine: engine, latency: latency, bytesPerTick: bytesPerTick}
}

// Name returns the link's name.
func (l *Link) Name() string { return l.name }

// Counters exposes messages/bytes counters.
func (l *Link) Counters() *Counters { return &l.ctr }

// serialisation returns the bus occupancy of a message of size bytes.
func serialisation(size, bytesPerTick int) sim.Tick {
	if bytesPerTick <= 0 {
		return 0
	}
	return sim.Tick((size + bytesPerTick - 1) / bytesPerTick)
}

// reserve books the serialisation slot for a message and returns its
// arrival tick.
func (l *Link) reserve(size int) sim.Tick {
	if size <= 0 {
		panic(fmt.Sprintf("interconnect %s: non-positive message size %d", l.name, size))
	}
	start := l.engine.Now()
	if l.nextFree > start {
		start = l.nextFree
	}
	occ := serialisation(size, l.bytesPerTick)
	l.nextFree = start + occ
	l.ctr.Messages++
	l.ctr.Bytes += uint64(size)
	return start + occ + l.latency
}

// Send transmits size bytes, fires fn(arg, arrival) at arrival unless
// fn is nil, and returns the arrival tick.
func (l *Link) Send(size int, fn func(arg any, now sim.Tick), arg any) sim.Tick {
	arrival := l.reserve(size)
	if fn != nil {
		l.engine.ScheduleArgAt(arrival, fn, arg)
	}
	return arrival
}

// Port is a network endpoint, resolved once from its name by
// Network.Port. Sends address endpoints by port, so the per-message
// path indexes slices instead of hashing names.
type Port int32

// Crossbar connects named ports with per-input and per-output
// arbitration: a message occupies its source's injection port and its
// destination's ejection port for its serialisation time.
type Crossbar struct {
	name         string
	engine       *sim.Engine
	latency      sim.Tick
	bytesPerTick int
	ports        []xbarPort
	byName       map[string]Port

	ctr Counters
}

// xbarPort is one crossbar endpoint's arbitration state. inUsed and
// outUsed mark a port that has injected or ejected a message: only those
// directions appear in snapshots, whose format lists them by name.
type xbarPort struct {
	name            string
	inFree, outFree sim.Tick
	inUsed, outUsed bool
}

// NewCrossbar builds a crossbar with the given hop latency and per-port
// bandwidth.
func NewCrossbar(engine *sim.Engine, name string, latency sim.Tick, bytesPerTick int) *Crossbar {
	return &Crossbar{
		name:         name,
		engine:       engine,
		latency:      latency,
		bytesPerTick: bytesPerTick,
		byName:       make(map[string]Port),
	}
}

// Name returns the crossbar's name.
func (x *Crossbar) Name() string { return x.name }

// Counters exposes messages/bytes counters.
func (x *Crossbar) Counters() *Counters { return &x.ctr }

// Port resolves a named endpoint, registering it on first use.
func (x *Crossbar) Port(name string) Port {
	if p, ok := x.byName[name]; ok {
		return p
	}
	p := Port(len(x.ports))
	x.ports = append(x.ports, xbarPort{name: name})
	x.byName[name] = p
	return p
}

// PortName returns the name port p was registered under.
func (x *Crossbar) PortName(p Port) string { return x.ports[p].name }

// reserve arbitrates the injection and ejection ports for a message and
// returns its arrival tick.
func (x *Crossbar) reserve(src, dst Port, size int) sim.Tick {
	if size <= 0 {
		panic(fmt.Sprintf("interconnect %s: non-positive message size %d", x.name, size))
	}
	in, out := &x.ports[src], &x.ports[dst]
	start := x.engine.Now()
	if in.inFree > start {
		start = in.inFree
	}
	if out.outFree > start {
		start = out.outFree
	}
	busyUntil := start + serialisation(size, x.bytesPerTick)
	in.inFree, in.inUsed = busyUntil, true
	out.outFree, out.outUsed = busyUntil, true
	x.ctr.Messages++
	x.ctr.Bytes += uint64(size)
	return busyUntil + x.latency
}

// Send transmits size bytes from port src to port dst, fires fn(arg,
// arrival) at arrival unless fn is nil, and returns the arrival tick.
func (x *Crossbar) Send(src, dst Port, size int, fn func(arg any, now sim.Tick), arg any) sim.Tick {
	arrival := x.reserve(src, dst, size)
	if fn != nil {
		x.engine.ScheduleArgAt(arrival, fn, arg)
	}
	return arrival
}

// Package interconnect models the on-chip networks: point-to-point
// links with latency and serialisation bandwidth, and a crossbar with
// per-port arbitration. The direct-store proposal adds one dedicated
// link from the CPU L1 controller to the GPU L2 (paper §III-G); the
// baseline CCSM traffic rides the shared crossbar.
//
// Links carry closures rather than typed messages: the coherence layer
// owns message semantics, the network owns timing. Every transfer is
// counted (messages and bytes) so experiments can report coherence
// traffic.
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
	// Send transmits size bytes and invokes deliver at arrival,
	// returning the arrival tick.
	Send(size int, deliver func(now sim.Tick)) sim.Tick
	// SendArg is the allocation-free variant: fn(arg, arrival) fires at
	// arrival. Hot senders pass a static function and a pooled argument
	// instead of capturing state in a fresh closure per message.
	SendArg(size int, fn func(arg any, now sim.Tick), arg any) sim.Tick
	Counters() *stats.Set
}

var _ DirectPort = (*Link)(nil)

// Link is a unidirectional point-to-point channel with a fixed
// propagation latency and a serialisation bandwidth. Sends that overlap
// queue behind each other.
type Link struct {
	name         string
	engine       *sim.Engine
	latency      sim.Tick
	bytesPerTick int
	nextFree     sim.Tick

	counters *stats.Set
	messages *stats.Counter
	bytes    *stats.Counter
}

// NewLink builds a link. bytesPerTick <= 0 means infinite bandwidth
// (pure latency).
func NewLink(engine *sim.Engine, name string, latency sim.Tick, bytesPerTick int) *Link {
	l := &Link{
		name:         name,
		engine:       engine,
		latency:      latency,
		bytesPerTick: bytesPerTick,
		counters:     stats.NewSet(),
	}
	l.messages = l.counters.Counter("messages")
	l.bytes = l.counters.Counter("bytes")
	return l
}

// Name returns the link's name.
func (l *Link) Name() string { return l.name }

// Counters exposes messages/bytes counters.
func (l *Link) Counters() *stats.Set { return l.counters }

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
	l.messages.Inc()
	l.bytes.Add(uint64(size))
	return start + occ + l.latency
}

// Send transmits size bytes and invokes deliver at arrival. It returns
// the arrival tick.
func (l *Link) Send(size int, deliver func(now sim.Tick)) sim.Tick {
	arrival := l.reserve(size)
	if deliver != nil {
		l.engine.ScheduleTickAt(arrival, deliver)
	}
	return arrival
}

// SendArg transmits size bytes and fires fn(arg, arrival) at arrival
// without allocating a delivery closure.
func (l *Link) SendArg(size int, fn func(arg any, now sim.Tick), arg any) sim.Tick {
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

	counters *stats.Set
	messages *stats.Counter
	bytes    *stats.Counter
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
	x := &Crossbar{
		name:         name,
		engine:       engine,
		latency:      latency,
		bytesPerTick: bytesPerTick,
		byName:       make(map[string]Port),
		counters:     stats.NewSet(),
	}
	x.messages = x.counters.Counter("messages")
	x.bytes = x.counters.Counter("bytes")
	return x
}

// Name returns the crossbar's name.
func (x *Crossbar) Name() string { return x.name }

// Counters exposes messages/bytes counters.
func (x *Crossbar) Counters() *stats.Set { return x.counters }

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
	x.messages.Inc()
	x.bytes.Add(uint64(size))
	return busyUntil + x.latency
}

// Send transmits size bytes from port src to port dst, invoking deliver
// at arrival, and returns the arrival tick.
func (x *Crossbar) Send(src, dst Port, size int, deliver func(now sim.Tick)) sim.Tick {
	arrival := x.reserve(src, dst, size)
	if deliver != nil {
		x.engine.ScheduleTickAt(arrival, deliver)
	}
	return arrival
}

// SendArg transmits size bytes from src to dst and fires fn(arg,
// arrival) at arrival without allocating a delivery closure.
func (x *Crossbar) SendArg(src, dst Port, size int, fn func(arg any, now sim.Tick), arg any) sim.Tick {
	arrival := x.reserve(src, dst, size)
	if fn != nil {
		x.engine.ScheduleArgAt(arrival, fn, arg)
	}
	return arrival
}

// TotalBytes returns all bytes ever sent through the crossbar.
func (x *Crossbar) TotalBytes() uint64 { return x.bytes.Value() }

// TotalMessages returns all messages ever sent through the crossbar.
func (x *Crossbar) TotalMessages() uint64 { return x.messages.Value() }

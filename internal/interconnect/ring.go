package interconnect

import (
	"fmt"

	"dstore/internal/sim"
	"dstore/internal/stats"
)

// Network is the interface the coherence layer sends messages over;
// both the crossbar and the ring satisfy it.
type Network interface {
	Name() string
	// Port resolves a named endpoint to the port sends address it by.
	// Callers resolve each endpoint once, at construction.
	Port(name string) Port
	// PortName returns the name a port was resolved from.
	PortName(p Port) string
	// Send transmits size bytes from src to dst, invoking deliver at
	// arrival, and returns the arrival tick.
	Send(src, dst Port, size int, deliver func(now sim.Tick)) sim.Tick
	// SendArg is the allocation-free variant: fn(arg, arrival) fires at
	// arrival, letting hot senders pass a static function plus a pooled
	// argument instead of a fresh closure per message.
	SendArg(src, dst Port, size int, fn func(arg any, now sim.Tick), arg any) sim.Tick
	Counters() *stats.Set
	TotalBytes() uint64
	TotalMessages() uint64
}

var (
	_ Network = (*Crossbar)(nil)
	_ Network = (*Ring)(nil)
)

// Ring is a bidirectional ring of named nodes: messages take the
// shorter direction, occupying each directed link along the path for
// their serialisation time and paying the hop latency per link —
// the on-chip topology many real LLC interconnects use.
type Ring struct {
	name         string
	engine       *sim.Engine
	nodes        []string
	index        map[string]int
	hopLat       sim.Tick
	bytesPerTick int
	// cwFree[i] guards the clockwise link i→i+1; ccwFree[i] guards the
	// counter-clockwise link i→i-1.
	cwFree  []sim.Tick
	ccwFree []sim.Tick

	counters *stats.Set
	messages *stats.Counter
	bytes    *stats.Counter
	hops     *stats.Counter
}

// NewRing builds a ring over the named nodes in the given cyclic order.
func NewRing(engine *sim.Engine, name string, nodes []string, hopLat sim.Tick, bytesPerTick int) *Ring {
	if len(nodes) < 2 {
		panic(fmt.Sprintf("interconnect %s: a ring needs at least 2 nodes", name))
	}
	r := &Ring{
		name:         name,
		engine:       engine,
		nodes:        append([]string(nil), nodes...),
		index:        make(map[string]int, len(nodes)),
		hopLat:       hopLat,
		bytesPerTick: bytesPerTick,
		cwFree:       make([]sim.Tick, len(nodes)),
		ccwFree:      make([]sim.Tick, len(nodes)),
		counters:     stats.NewSet(),
	}
	for i, n := range nodes {
		if _, dup := r.index[n]; dup {
			panic(fmt.Sprintf("interconnect %s: duplicate ring node %q", name, n))
		}
		r.index[n] = i
	}
	r.messages = r.counters.Counter("messages")
	r.bytes = r.counters.Counter("bytes")
	r.hops = r.counters.Counter("hops")
	return r
}

// Name returns the ring's name.
func (r *Ring) Name() string { return r.name }

// Counters exposes messages/bytes/hops counters.
func (r *Ring) Counters() *stats.Set { return r.counters }

// TotalBytes returns all bytes ever sent.
func (r *Ring) TotalBytes() uint64 { return r.bytes.Value() }

// TotalMessages returns all messages ever sent.
func (r *Ring) TotalMessages() uint64 { return r.messages.Value() }

// Port resolves a ring node to its port, its position in the ring
// order. Naming a node the ring was not built with panics.
func (r *Ring) Port(name string) Port {
	i, ok := r.index[name]
	if !ok {
		panic(fmt.Sprintf("interconnect %s: unknown node %q", r.name, name))
	}
	return Port(i)
}

// PortName returns the node at port p.
func (r *Ring) PortName(p Port) string { return r.nodes[p] }

// Nodes returns the ring order (copy).
func (r *Ring) Nodes() []string { return append([]string(nil), r.nodes...) }

// HopsBetween returns the number of links a message between the two
// nodes traverses (shortest direction).
func (r *Ring) HopsBetween(src, dst string) int {
	i, j, n := r.index[src], r.index[dst], len(r.nodes)
	cw := (j - i + n) % n
	ccw := (i - j + n) % n
	if cw <= ccw {
		return cw
	}
	return ccw
}

// Send routes size bytes from src to dst the shorter way around.
func (r *Ring) Send(src, dst Port, size int, deliver func(now sim.Tick)) sim.Tick {
	t := r.reserve(src, dst, size)
	if deliver != nil {
		r.engine.ScheduleTickAt(t, deliver)
	}
	return t
}

// SendArg routes size bytes from src to dst and fires fn(arg, arrival)
// at arrival without allocating a delivery closure.
func (r *Ring) SendArg(src, dst Port, size int, fn func(arg any, now sim.Tick), arg any) sim.Tick {
	t := r.reserve(src, dst, size)
	if fn != nil {
		r.engine.ScheduleArgAt(t, fn, arg)
	}
	return t
}

// reserve walks the path's directed links, booking each for the
// message's serialisation time, and returns the arrival tick.
func (r *Ring) reserve(src, dst Port, size int) sim.Tick {
	if size <= 0 {
		panic(fmt.Sprintf("interconnect %s: non-positive message size %d", r.name, size))
	}
	i, j, n := int(src), int(dst), len(r.nodes)
	cw := (j - i + n) % n
	ccw := (i - j + n) % n
	clockwise := cw <= ccw
	hopsLeft := cw
	if !clockwise {
		hopsLeft = ccw
	}

	occ := serialisation(size, r.bytesPerTick)
	t := r.engine.Now()
	at := i
	for h := 0; h < hopsLeft; h++ {
		var free *sim.Tick
		if clockwise {
			free = &r.cwFree[at]
			at = (at + 1) % n
		} else {
			free = &r.ccwFree[at]
			at = (at - 1 + n) % n
		}
		start := t
		if *free > start {
			start = *free
		}
		*free = start + occ
		t = start + occ + r.hopLat
	}
	// Same-node delivery still pays one hop of latency (local port).
	if hopsLeft == 0 {
		t += r.hopLat
	}

	r.messages.Inc()
	r.bytes.Add(uint64(size))
	r.hops.Add(uint64(hopsLeft))
	return t
}

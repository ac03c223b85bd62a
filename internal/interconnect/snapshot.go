package interconnect

import (
	"sort"

	"dstore/internal/sim"
	"dstore/internal/snap"
)

// SnapshotTo serialises the link's serialisation cursor and counters.
func (l *Link) SnapshotTo(w *snap.Writer) {
	w.Tag("link")
	w.String(l.name)
	w.I64(int64(l.nextFree))
	l.ctr.Rows().SnapshotTo(w)
}

// RestoreFrom overwrites the link's state from a snapshot.
func (l *Link) RestoreFrom(r *snap.Reader) {
	r.Tag("link")
	if name := r.String(); r.Err() == nil && name != l.name {
		r.Failf("interconnect %s: snapshot of link %q", l.name, name)
	}
	if r.Err() != nil {
		return
	}
	l.nextFree = sim.Tick(r.I64())
	l.ctr.Rows().RestoreFrom(r)
}

// snapshotPorts serialises one direction's port free times in the
// sorted-name format: the count of ports used in that direction, then
// (name, free tick) pairs in name order.
func (x *Crossbar) snapshotPorts(w *snap.Writer, out bool) {
	ps := make([]*xbarPort, 0, len(x.ports))
	for i := range x.ports {
		if p := &x.ports[i]; (out && p.outUsed) || (!out && p.inUsed) {
			ps = append(ps, p)
		}
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].name < ps[j].name })
	w.U32(uint32(len(ps)))
	for _, p := range ps {
		w.String(p.name)
		if out {
			w.I64(int64(p.outFree))
		} else {
			w.I64(int64(p.inFree))
		}
	}
}

// restorePorts reads one direction written by snapshotPorts, first
// clearing that direction on every port. A name the crossbar has not
// seen registers a new port.
func (x *Crossbar) restorePorts(r *snap.Reader, out bool) {
	for i := range x.ports {
		p := &x.ports[i]
		if out {
			p.outFree, p.outUsed = 0, false
		} else {
			p.inFree, p.inUsed = 0, false
		}
	}
	n := r.U32()
	for i := uint32(0); i < n && r.Err() == nil; i++ {
		name := r.String()
		t := sim.Tick(r.I64())
		if r.Err() != nil {
			return
		}
		p := &x.ports[x.Port(name)]
		if out {
			p.outFree, p.outUsed = t, true
		} else {
			p.inFree, p.inUsed = t, true
		}
	}
}

// SnapshotTo serialises per-port arbitration state and counters.
func (x *Crossbar) SnapshotTo(w *snap.Writer) {
	w.Tag("xbar")
	w.String(x.name)
	x.snapshotPorts(w, false)
	x.snapshotPorts(w, true)
	x.ctr.Rows().SnapshotTo(w)
}

// RestoreFrom overwrites the crossbar's state from a snapshot.
func (x *Crossbar) RestoreFrom(r *snap.Reader) {
	r.Tag("xbar")
	if name := r.String(); r.Err() == nil && name != x.name {
		r.Failf("interconnect %s: snapshot of crossbar %q", x.name, name)
	}
	if r.Err() != nil {
		return
	}
	x.restorePorts(r, false)
	x.restorePorts(r, true)
	x.ctr.Rows().RestoreFrom(r)
}

// SnapshotTo serialises per-directed-link arbitration state and
// counters.
func (g *Ring) SnapshotTo(w *snap.Writer) {
	w.Tag("ring")
	w.String(g.name)
	w.U32(uint32(len(g.nodes)))
	for i := range g.nodes {
		w.I64(int64(g.cwFree[i]))
		w.I64(int64(g.ccwFree[i]))
	}
	g.ctr.Rows().SnapshotTo(w)
}

// RestoreFrom overwrites the ring's state from a snapshot taken on a
// ring with the same node count.
func (g *Ring) RestoreFrom(r *snap.Reader) {
	r.Tag("ring")
	if name := r.String(); r.Err() == nil && name != g.name {
		r.Failf("interconnect %s: snapshot of ring %q", g.name, name)
	}
	if n := r.U32(); r.Err() == nil && int(n) != len(g.nodes) {
		r.Failf("interconnect %s: snapshot has %d nodes, ring has %d", g.name, n, len(g.nodes))
	}
	if r.Err() != nil {
		return
	}
	for i := range g.nodes {
		g.cwFree[i] = sim.Tick(r.I64())
		g.ccwFree[i] = sim.Tick(r.I64())
	}
	g.ctr.Rows().RestoreFrom(r)
}

package coherence

import (
	"sort"

	"dstore/internal/sim"
	"dstore/internal/snap"
)

// SnapshotTo serialises a cache controller at a quiescent point: the
// protocol line table (sparse), the port cursor, the cache arrays and
// the counters. Transient state — MSHR entries, stalled requests,
// pending remote loads, buffered writebacks awaiting acks — is events
// in flight, which a drained engine cannot have; any of it non-empty
// marks the snapshot unusable. Chaos runs (recovery hooks attached)
// are never snapshotted: their replay tables are part of fault
// injection, not machine state.
func (c *Ctrl) SnapshotTo(w *snap.Writer) {
	w.Tag("ctrl")
	w.String(c.name)
	quiet := c.mshr.Len() == 0 && c.stalled.len() == 0 && len(c.remotePending) == 0 &&
		c.hooks == nil && c.pushSeq == 0
	w.Bool(quiet)
	w.I64(int64(c.portFree))
	w.U32(uint32(c.wbCount))

	// Sparse line table: count, then (line index, ver, wbVer, flags).
	n := 0
	for i := range c.lines.v {
		ls := &c.lines.v[i]
		if ls.ver != 0 || ls.wbVer != 0 || ls.flags != 0 {
			n++
		}
	}
	w.U32(uint32(n))
	for i := range c.lines.v {
		ls := &c.lines.v[i]
		if ls.ver == 0 && ls.wbVer == 0 && ls.flags == 0 {
			continue
		}
		w.U64(uint64(i))
		w.U64(ls.ver)
		w.U64(ls.wbVer)
		w.U8(ls.flags)
	}

	w.Bool(c.l1 != nil)
	if c.l1 != nil {
		c.l1.SnapshotTo(w)
	}
	c.l2.SnapshotTo(w)
	c.counters.SnapshotTo(w)
}

// RestoreFrom overwrites the controller's state from a snapshot taken
// on an identically named and shaped controller.
func (c *Ctrl) RestoreFrom(r *snap.Reader) {
	r.Tag("ctrl")
	if name := r.String(); r.Err() == nil && name != c.name {
		r.Failf("coherence %s: snapshot of controller %q", c.name, name)
	}
	if r.Err() == nil && !r.Bool() {
		r.Failf("coherence %s: snapshot was taken with transactions in flight or chaos attached", c.name)
	}
	if r.Err() != nil {
		return
	}
	if c.mshr.Len() != 0 || c.stalled.len() != 0 || len(c.remotePending) != 0 {
		r.Failf("coherence %s: restore into a controller with transactions in flight", c.name)
		return
	}
	c.portFree = sim.Tick(r.I64())
	c.wbCount = int(r.U32())

	c.lines = lineTab[lineState]{}
	n := r.U32()
	for i := uint32(0); i < n && r.Err() == nil; i++ {
		idx := r.U64()
		ver := r.U64()
		wbVer := r.U64()
		flags := r.U8()
		if r.Err() != nil {
			return
		}
		*c.lines.atIndex(idx) = lineState{ver: ver, wbVer: wbVer, flags: flags}
	}

	hasL1 := r.Bool()
	if r.Err() != nil {
		return
	}
	if hasL1 != (c.l1 != nil) {
		r.Failf("coherence %s: snapshot L1 presence %v, configured %v", c.name, hasL1, c.l1 != nil)
		return
	}
	if c.l1 != nil {
		c.l1.RestoreFrom(r)
	}
	c.l2.RestoreFrom(r)
	c.counters.RestoreFrom(r)
}

// atIndex is at() addressed by line table index rather than line
// address (the index is LineNum of the physical line address).
func (t *lineTab[T]) atIndex(i uint64) *T {
	if i >= uint64(len(t.v)) {
		t.grow(i)
	}
	return &t.v[i]
}

// SnapshotTo serialises the ordering point: the memory version table
// (sparse), the optional region directory and the counters. Open
// transactions or queued collisions are in-flight events and mark the
// snapshot unusable, as does a tripped watchdog.
func (m *MemCtrl) SnapshotTo(w *snap.Writer) {
	w.Tag("memctrl")
	w.String(m.name)
	w.Bool(m.busyCount == 0 && len(m.queued) == 0 && !m.wdArmed && !m.wdTripped)

	n := 0
	for _, v := range m.dramVer.v {
		if v != 0 {
			n++
		}
	}
	w.U32(uint32(n))
	for i, v := range m.dramVer.v {
		if v == 0 {
			continue
		}
		w.U64(uint64(i))
		w.U64(v)
	}

	w.Bool(m.regions != nil)
	if m.regions != nil {
		m.regions.SnapshotTo(w)
	}
	m.counters.SnapshotTo(w)
}

// RestoreFrom overwrites the ordering point's state from a snapshot.
func (m *MemCtrl) RestoreFrom(r *snap.Reader) {
	r.Tag("memctrl")
	if name := r.String(); r.Err() == nil && name != m.name {
		r.Failf("coherence %s: snapshot of memory controller %q", m.name, name)
	}
	if r.Err() == nil && !r.Bool() {
		r.Failf("coherence %s: snapshot was taken with transactions open at the ordering point", m.name)
	}
	if r.Err() != nil {
		return
	}
	if m.busyCount != 0 || len(m.queued) != 0 {
		r.Failf("coherence %s: restore into an ordering point with transactions open", m.name)
		return
	}
	m.dramVer = lineTab[uint64]{}
	n := r.U32()
	for i := uint32(0); i < n && r.Err() == nil; i++ {
		idx := r.U64()
		v := r.U64()
		if r.Err() != nil {
			return
		}
		*m.dramVer.atIndex(idx) = v
	}
	hasRegions := r.Bool()
	if r.Err() != nil {
		return
	}
	if hasRegions != (m.regions != nil) {
		r.Failf("coherence %s: snapshot region directory presence %v, configured %v", m.name, hasRegions, m.regions != nil)
		return
	}
	if m.regions != nil {
		m.regions.RestoreFrom(r)
	}
	m.counters.RestoreFrom(r)
}

// SnapshotTo serialises the probe filter's ownership state (sorted by
// region number for a deterministic stream) and counters.
func (d *RegionDirectory) SnapshotTo(w *snap.Writer) {
	w.Tag("regions")
	regs := make([]uint64, 0, len(d.owner))
	for reg := range d.owner { //dstore:allow-maprange keys sorted below
		regs = append(regs, reg)
	}
	sort.Slice(regs, func(i, j int) bool { return regs[i] < regs[j] })
	w.U32(uint32(len(regs)))
	for _, reg := range regs {
		w.U64(reg)
		w.String(d.owner[reg])
	}
	shared := make([]uint64, 0, len(d.shared))
	for reg := range d.shared { //dstore:allow-maprange keys sorted below
		if d.shared[reg] {
			shared = append(shared, reg)
		}
	}
	sort.Slice(shared, func(i, j int) bool { return shared[i] < shared[j] })
	w.U32(uint32(len(shared)))
	for _, reg := range shared {
		w.U64(reg)
	}
	d.counters.SnapshotTo(w)
}

// RestoreFrom overwrites the probe filter's state from a snapshot.
func (d *RegionDirectory) RestoreFrom(r *snap.Reader) {
	r.Tag("regions")
	d.owner = make(map[uint64]string) //dstore:allow-alloc snapshot restore, cold path
	d.shared = make(map[uint64]bool)  //dstore:allow-alloc snapshot restore, cold path
	n := r.U32()
	for i := uint32(0); i < n && r.Err() == nil; i++ {
		reg := r.U64()
		d.owner[reg] = r.String()
	}
	ns := r.U32()
	for i := uint32(0); i < ns && r.Err() == nil; i++ {
		d.shared[r.U64()] = true
	}
	d.counters.RestoreFrom(r)
}

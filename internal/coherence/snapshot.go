package coherence

import (
	"sort"

	"dstore/internal/memsys"
	"dstore/internal/sim"
	"dstore/internal/snap"
)

// The writeback flags of a line-table entry in the snapshot stream.
// They are part of the serialised format, whatever bits wbBuf keeps
// them in.
const (
	snapWB      = 1
	snapWBStale = 2
)

// snapFlags returns a buffered writeback's flags in snapshot form.
func (b wbBuf) snapFlags() uint8 {
	if b.stale() {
		return snapWB | snapWBStale
	}
	return snapWB
}

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
	w.U32(uint32(c.wb.len()))

	// Sparse line table: count, then (line number, ver, wbVer, flags)
	// in ascending line order, one record per line holding a version
	// or a buffered writeback. Line numbers are global, so the stream
	// does not depend on how a slice indexes its own lines.
	wbLines := c.wb.lines()
	n := 0
	c.lines.each(func(_, _ uint64) { n++ })
	for _, line := range wbLines {
		if c.lines.get(line) == 0 {
			n++
		}
	}
	w.U32(uint32(n))
	record := func(line memsys.Addr, ver uint64) {
		b, ok := c.wb.get(line)
		w.U64(memsys.LineNum(line))
		w.U64(ver)
		w.U64(b.ver())
		if ok {
			w.U8(b.snapFlags())
		} else {
			w.U8(0)
		}
	}
	// Merge the buffered writebacks into the version table's walk.
	c.lines.each(func(n, ver uint64) {
		line := memsys.Addr(n << memsys.LineShift)
		for len(wbLines) > 0 && wbLines[0] < line {
			record(wbLines[0], 0)
			wbLines = wbLines[1:]
		}
		if len(wbLines) > 0 && wbLines[0] == line {
			wbLines = wbLines[1:]
		}
		record(line, ver)
	})
	for _, line := range wbLines {
		record(line, 0)
	}

	w.Bool(c.l1 != nil)
	if c.l1 != nil {
		c.l1.SnapshotTo(w)
	}
	c.l2.SnapshotTo(w)
	c.ctr.Rows().SnapshotTo(w)
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
	wbCount := int(r.U32())

	c.lines.release()
	c.wb.release()
	n := r.U32()
	for i := uint32(0); i < n && r.Err() == nil; i++ {
		line := memsys.Addr(r.U64() << memsys.LineShift)
		ver := r.U64()
		wbVer := r.U64()
		flags := r.U8()
		if r.Err() != nil {
			return
		}
		idx, ok := c.lines.local(line)
		if !ok {
			r.Failf("coherence %s: snapshot holds line %#x of another slice", c.name, uint64(line))
			return
		}
		// A line without a buffered writeback has no writeback version
		// and no stale flag.
		buffered := flags&snapWB != 0
		if wbVer > wbVerMask || flags&^(snapWB|snapWBStale) != 0 || !buffered && (flags != 0 || wbVer != 0) {
			r.Failf("coherence %s: invalid snapshot writeback entry (version %d, flags %#x)", c.name, wbVer, flags)
			return
		}
		if ver != 0 {
			*c.lines.atIndex(idx) = ver
		}
		if buffered {
			b := bufferedWB(wbVer)
			if flags&snapWBStale != 0 {
				b |= wbStale
			}
			c.wb.put(line, b)
		}
	}
	if r.Err() == nil && wbCount != c.wb.len() {
		r.Failf("coherence %s: snapshot counts %d buffered writebacks, holds %d", c.name, wbCount, c.wb.len())
		return
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
	c.ctr.Rows().RestoreFrom(r)
}

// SnapshotTo serialises the ordering point: the memory version table
// (sparse), the optional region directory and the counters. Open
// transactions or queued collisions are in-flight events and mark the
// snapshot unusable, as does a tripped watchdog.
func (m *MemCtrl) SnapshotTo(w *snap.Writer) {
	w.Tag("memctrl")
	w.String(m.name)
	w.Bool(m.busy.len() == 0 && len(m.queued) == 0 && !m.wdArmed && !m.wdTripped)

	n := 0
	m.dramVer.each(func(_, _ uint64) { n++ })
	w.U32(uint32(n))
	m.dramVer.each(func(line, v uint64) {
		w.U64(line)
		w.U64(v)
	})

	w.Bool(m.regions != nil)
	if m.regions != nil {
		m.regions.SnapshotTo(w)
	}
	m.ctr.Rows().SnapshotTo(w)
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
	if m.busy.len() != 0 || len(m.queued) != 0 {
		r.Failf("coherence %s: restore into an ordering point with transactions open", m.name)
		return
	}
	m.dramVer.release()
	m.busy.release()
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
	m.ctr.Rows().RestoreFrom(r)
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
	d.ctr.Rows().SnapshotTo(w)
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
	d.ctr.Rows().RestoreFrom(r)
}

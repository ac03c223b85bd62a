package cpu

import "dstore/internal/snap"

// SnapshotTo serialises the version source (the functional data
// oracle shared by every store site).
func (v *VersionSource) SnapshotTo(w *snap.Writer) {
	w.Tag("vers")
	w.U64(v.next)
}

// RestoreFrom overwrites the version source from a snapshot.
func (v *VersionSource) RestoreFrom(r *snap.Reader) {
	r.Tag("vers")
	v.next = r.U64()
}

// SnapshotTo serialises the core at a quiescent point: its TLB and
// counters. Pipeline and store-buffer state is in-flight events; a
// drained engine cannot have any, and a running core marks the
// snapshot unusable.
func (c *Core) SnapshotTo(w *snap.Writer) {
	w.Tag("core")
	w.Bool(!c.running && c.sbInFlight == 0 && !c.sbWaiting)
	c.tlb.SnapshotTo(w)
	c.ctr.Rows().SnapshotTo(w)
}

// RestoreFrom overwrites the core's state from a snapshot.
func (c *Core) RestoreFrom(r *snap.Reader) {
	r.Tag("core")
	if r.Err() == nil && !r.Bool() {
		r.Failf("cpu: snapshot was taken with the core mid-stream")
	}
	if r.Err() != nil {
		return
	}
	if c.running || c.sbInFlight != 0 {
		r.Failf("cpu: restore into a running core")
		return
	}
	c.tlb.RestoreFrom(r)
	c.ctr.Rows().RestoreFrom(r)
}

package dram

import (
	"dstore/internal/sim"
	"dstore/internal/snap"
)

// SnapshotTo serialises bank/bus timing state and counters. The
// FRFCFS queues hold scheduled callbacks and cannot be serialised;
// at a quiescent point they are empty by construction, and a
// non-empty queue is reported as an unsnapshottable state.
func (d *DRAM) SnapshotTo(w *snap.Writer) {
	w.Tag("dram")
	w.U32(uint32(d.totBanks))
	for i := range d.banks {
		b := &d.banks[i]
		w.I64(int64(b.busyUntil))
		w.U64(b.openRow)
		w.Bool(b.hasOpenRow)
	}
	w.U32(uint32(len(d.busFree)))
	for _, t := range d.busFree {
		w.I64(int64(t))
	}
	if d.sched != nil {
		w.Bool(true)
		w.Bool(len(d.sched.reads) == 0 && len(d.sched.writes) == 0 && !d.sched.scheduling)
		w.Bool(d.sched.draining)
		w.U64(d.sched.seq)
	} else {
		w.Bool(false)
	}
	d.ctr.Rows().SnapshotTo(w)
}

// RestoreFrom overwrites timing state from a snapshot taken on an
// identically configured controller.
func (d *DRAM) RestoreFrom(r *snap.Reader) {
	r.Tag("dram")
	if n := r.U32(); r.Err() == nil && int(n) != d.totBanks {
		r.Failf("dram %s: snapshot has %d banks, configured %d", d.cfg.Name, n, d.totBanks)
	}
	if r.Err() != nil {
		return
	}
	for i := range d.banks {
		d.banks[i].busyUntil = sim.Tick(r.I64())
		d.banks[i].openRow = r.U64()
		d.banks[i].hasOpenRow = r.Bool()
	}
	if n := r.U32(); r.Err() == nil && int(n) != len(d.busFree) {
		r.Failf("dram %s: snapshot has %d channels, configured %d", d.cfg.Name, n, len(d.busFree))
	}
	if r.Err() != nil {
		return
	}
	for i := range d.busFree {
		d.busFree[i] = sim.Tick(r.I64())
	}
	hasSched := r.Bool()
	if r.Err() != nil {
		return
	}
	if hasSched != (d.sched != nil) {
		r.Failf("dram %s: snapshot scheduler presence %v, configured %v", d.cfg.Name, hasSched, d.sched != nil)
		return
	}
	if hasSched {
		if !r.Bool() {
			r.Failf("dram %s: snapshot was taken with requests queued in the scheduler", d.cfg.Name)
			return
		}
		d.sched.draining = r.Bool()
		d.sched.seq = r.U64()
	}
	d.ctr.Rows().RestoreFrom(r)
}

package gpu

import (
	"dstore/internal/sim"
	"dstore/internal/snap"
)

// SnapshotTo serialises the GPU at a quiescent point. A GPU that has
// never launched a kernel is written as a single "virgin" marker with
// no per-SM state: a fresh system's GPU is already in that state, so
// such snapshots restore into a system with a *different* GPU shape
// (SM count, L1 geometry, warp limit). That is what makes warm-prefix
// sharing across GPU-side configuration sweeps sound — the CPU
// produce phase cannot touch the GPU pipeline, only the L2 slices,
// which are keyed and restored exactly. A GPU with kernel history
// serialises per-SM issue cursors, L1 arrays, the TLB and counters,
// and restores only into a matching shape.
func (g *GPU) SnapshotTo(w *snap.Writer) {
	w.Tag("gpu")
	quiet := !g.running && g.warpsLeft == 0 && g.outstandingStores == 0 && len(g.barrierWaiters) == 0
	for _, s := range g.sms {
		quiet = quiet && s.storesInFlight == 0 && len(s.fills) == 0 && s.next >= len(g.ctxs) && s.active == 0
	}
	w.Bool(quiet)
	virgin := quiet && g.ctr.KernelLaunches == 0
	w.Bool(virgin)
	if virgin {
		return
	}
	w.U32(uint32(len(g.sms)))
	for _, s := range g.sms {
		w.I64(int64(s.issueFree))
		s.l1.SnapshotTo(w)
	}
	g.tlb.SnapshotTo(w)
	g.ctr.Rows().SnapshotTo(w)
}

// RestoreFrom overwrites the GPU's state from a snapshot.
func (g *GPU) RestoreFrom(r *snap.Reader) {
	r.Tag("gpu")
	if r.Err() == nil && !r.Bool() {
		r.Failf("gpu: snapshot was taken with a kernel in flight")
	}
	if r.Err() != nil {
		return
	}
	if g.running || g.warpsLeft != 0 || g.outstandingStores != 0 {
		r.Failf("gpu: restore into a GPU with a kernel in flight")
		return
	}
	if r.Bool() {
		return // virgin: the fresh GPU is already in snapshot state
	}
	if n := r.U32(); r.Err() == nil && int(n) != len(g.sms) {
		r.Failf("gpu: snapshot has %d SMs, configured %d", n, len(g.sms))
	}
	if r.Err() != nil {
		return
	}
	for _, s := range g.sms {
		s.issueFree = sim.Tick(r.I64())
		s.l1.RestoreFrom(r)
	}
	g.tlb.RestoreFrom(r)
	g.ctr.Rows().RestoreFrom(r)
}

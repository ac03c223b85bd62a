package mmu

import (
	"sort"

	"dstore/internal/snap"
)

// SnapshotTo serialises the page table: frame mappings (sorted by
// virtual page number for a deterministic stream) and the allocation
// cursor.
func (pt *PageTable) SnapshotTo(w *snap.Writer) {
	w.Tag("pagetable")
	w.U64(pt.maxFrames)
	w.U64(pt.nextFrame)
	vpns := make([]uint64, 0, len(pt.frames))
	for vpn := range pt.frames { //dstore:allow-maprange keys sorted below
		vpns = append(vpns, vpn)
	}
	sort.Slice(vpns, func(i, j int) bool { return vpns[i] < vpns[j] })
	w.U32(uint32(len(vpns)))
	for _, vpn := range vpns {
		w.U64(vpn)
		w.U64(pt.frames[vpn])
	}
}

// RestoreFrom overwrites the page table from a snapshot. The physical
// memory bound must match the configured table.
func (pt *PageTable) RestoreFrom(r *snap.Reader) {
	r.Tag("pagetable")
	maxFrames := r.U64()
	nextFrame := r.U64()
	n := r.U32()
	if r.Err() != nil {
		return
	}
	if maxFrames != pt.maxFrames {
		r.Failf("mmu: snapshot physical memory %d frames, configured %d", maxFrames, pt.maxFrames)
		return
	}
	pt.nextFrame = nextFrame
	pt.frames = make(map[uint64]uint64, n) //dstore:allow-alloc snapshot restore, cold path
	for i := uint32(0); i < n && r.Err() == nil; i++ {
		vpn := r.U64()
		pfn := r.U64()
		pt.frames[vpn] = pfn
	}
}

// SnapshotTo serialises the TLB contents, LRU clock and counters. The
// vpn index is rebuilt on restore.
func (t *TLB) SnapshotTo(w *snap.Writer) {
	w.Tag("tlb")
	w.String(t.cfg.Name)
	w.U64(t.clock)
	w.U32(uint32(len(t.entries)))
	for _, e := range t.entries {
		w.U64(e.vpn)
		w.U64(e.pfn)
		w.U64(e.used)
	}
	t.counters.SnapshotTo(w)
}

// RestoreFrom overwrites the TLB from a snapshot. The snapshot must
// fit the configured entry count.
func (t *TLB) RestoreFrom(r *snap.Reader) {
	r.Tag("tlb")
	name := r.String()
	clock := r.U64()
	n := r.U32()
	if r.Err() != nil {
		return
	}
	if name != t.cfg.Name {
		r.Failf("mmu %s: snapshot of TLB %q", t.cfg.Name, name)
		return
	}
	if int(n) > t.cfg.Entries {
		r.Failf("mmu %s: snapshot holds %d entries, TLB has %d", t.cfg.Name, n, t.cfg.Entries)
		return
	}
	t.clock = clock
	t.entries = t.entries[:0]
	for k := range t.index { //dstore:allow-maprange delete-all, order cannot escape
		delete(t.index, k)
	}
	for i := uint32(0); i < n && r.Err() == nil; i++ {
		e := tlbEntry{vpn: r.U64(), pfn: r.U64(), used: r.U64()}
		t.entries = append(t.entries, e)
		t.index[e.vpn] = int32(len(t.entries) - 1)
	}
	t.relink()
	t.counters.RestoreFrom(r)
}

// relink rebuilds the recency list from the used stamps: entries
// sorted by ascending stamp are pushed to the front in turn, leaving
// the most recent at head and the least recent at tail.
func (t *TLB) relink() {
	order := make([]int32, len(t.entries))
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool { return t.entries[order[a]].used < t.entries[order[b]].used })
	t.head, t.tail = -1, -1
	for _, i := range order {
		t.pushFront(i)
	}
}

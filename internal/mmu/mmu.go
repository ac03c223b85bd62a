// Package mmu models virtual memory: a demand-allocated page table, a
// hardware page walker cost, and a TLB extended with the paper's
// direct-store detector (§III-E). The detector is a single comparison of
// high-order virtual-address bits against the reserved range; when it
// fires on a store, the TLB "sends a signal to the MMU indicating to the
// CPU's L1 cache controller to forward the store onto the GPU L2
// cache".
package mmu

import (
	"fmt"

	"dstore/internal/memsys"
	"dstore/internal/sim"
	"dstore/internal/stats"
)

// Page geometry.
const (
	PageShift = 12
	PageSize  = 1 << PageShift
)

// PageTable maps virtual pages to physical frames, allocating frames on
// first touch (syscall-emulation style, like the paper's gem5-gpu
// runs). Physical memory is bounded: exhausting it is an error.
type PageTable struct {
	frames    map[uint64]uint64
	nextFrame uint64
	maxFrames uint64
}

// NewPageTable builds a page table backed by memBytes of physical
// memory (Table I: 2GB).
func NewPageTable(memBytes uint64) *PageTable {
	if memBytes < PageSize {
		panic("mmu: physical memory smaller than one page")
	}
	return &PageTable{
		frames:    make(map[uint64]uint64),
		maxFrames: memBytes / PageSize,
	}
}

// Lookup translates va if its page is already mapped.
func (pt *PageTable) Lookup(va memsys.Addr) (memsys.Addr, bool) {
	vpn := uint64(va) >> PageShift
	pfn, ok := pt.frames[vpn]
	if !ok {
		return 0, false
	}
	return memsys.Addr(pfn<<PageShift | uint64(va)&(PageSize-1)), true
}

// EnsureMapped translates va, allocating a frame on first touch.
func (pt *PageTable) EnsureMapped(va memsys.Addr) (memsys.Addr, error) {
	if pa, ok := pt.Lookup(va); ok {
		return pa, nil
	}
	if pt.nextFrame >= pt.maxFrames {
		return 0, fmt.Errorf("mmu: out of physical memory (%d frames)", pt.maxFrames)
	}
	vpn := uint64(va) >> PageShift
	pfn := pt.nextFrame
	pt.nextFrame++
	pt.frames[vpn] = pfn
	return memsys.Addr(pfn<<PageShift | uint64(va)&(PageSize-1)), nil
}

// MappedPages returns the number of resident pages.
func (pt *PageTable) MappedPages() int { return len(pt.frames) }

// Config describes a TLB.
type Config struct {
	Name string
	// Entries is the number of fully associative entries.
	Entries int
	// HitLatency is charged on a TLB hit.
	HitLatency sim.Tick
	// WalkLatency is charged on a miss for the page walk.
	WalkLatency sim.Tick
	// DirectBase/DirectLimit bound the reserved direct-store VA range
	// the detector compares against.
	DirectBase  memsys.Addr
	DirectLimit memsys.Addr
}

type tlbEntry struct {
	vpn  uint64
	pfn  uint64
	used uint64
	// prev and next link the entry into the TLB's recency list (more
	// recently used toward head); -1 ends the list.
	prev, next int32
}

// TLB is a fully associative translation cache with true-LRU
// replacement, plus the direct-store range detector.
type TLB struct {
	cfg     Config
	pt      *PageTable
	entries []tlbEntry
	// index maps vpn → slot in entries, mirroring the linear contents:
	// a 256-entry fully associative file is too big to scan per
	// translation.
	index map[uint64]int32
	// head and tail are the most and least recently used entries of the
	// intrusive recency list threaded through entries, so the LRU
	// victim is tail in O(1). The used stamps stay (they are unique per
	// translation) and are what snapshots carry; the list is rebuilt
	// from them on restore.
	head, tail int32
	clock      uint64

	counters *stats.Set
	hits     *stats.Counter
	misses   *stats.Counter
	directs  *stats.Counter
}

// NewTLB builds a TLB over the given page table.
func NewTLB(pt *PageTable, cfg Config) *TLB {
	if cfg.Entries <= 0 {
		panic(fmt.Sprintf("mmu %s: non-positive TLB entries", cfg.Name))
	}
	if cfg.DirectLimit < cfg.DirectBase {
		panic(fmt.Sprintf("mmu %s: inverted direct-store range", cfg.Name))
	}
	t := &TLB{cfg: cfg, pt: pt, index: make(map[uint64]int32, cfg.Entries), head: -1, tail: -1, counters: stats.NewSet()}
	t.hits = t.counters.Counter("hits")
	t.misses = t.counters.Counter("misses")
	t.directs = t.counters.Counter("direct_detected")
	return t
}

// Counters exposes hit/miss/direct-detection counters.
func (t *TLB) Counters() *stats.Set { return t.counters }

// IsDirect is the detector: a pure high-order-address comparison, the
// "small overhead [that] can be done by wiring to a logic gate" of
// §IV-E. It does not touch translation state.
func (t *TLB) IsDirect(va memsys.Addr) bool {
	return va >= t.cfg.DirectBase && va < t.cfg.DirectLimit
}

// unlink removes entry i from the recency list.
func (t *TLB) unlink(i int32) {
	e := &t.entries[i]
	if e.prev >= 0 {
		t.entries[e.prev].next = e.next
	} else {
		t.head = e.next
	}
	if e.next >= 0 {
		t.entries[e.next].prev = e.prev
	} else {
		t.tail = e.prev
	}
}

// pushFront makes entry i the most recently used.
func (t *TLB) pushFront(i int32) {
	e := &t.entries[i]
	e.prev, e.next = -1, t.head
	if t.head >= 0 {
		t.entries[t.head].prev = i
	} else {
		t.tail = i
	}
	t.head = i
}

// Translate maps va to a physical address, charging hit or walk latency,
// and reports whether the detector fired. Pages are demand-allocated; an
// error means physical memory is exhausted.
func (t *TLB) Translate(va memsys.Addr) (pa memsys.Addr, lat sim.Tick, direct bool, err error) {
	direct = t.IsDirect(va)
	if direct {
		t.directs.Inc()
	}
	vpn := uint64(va) >> PageShift
	t.clock++
	if i, ok := t.index[vpn]; ok {
		t.hits.Inc()
		t.entries[i].used = t.clock
		if i != t.head {
			t.unlink(i)
			t.pushFront(i)
		}
		pfn := t.entries[i].pfn
		return memsys.Addr(pfn<<PageShift | uint64(va)&(PageSize-1)), t.cfg.HitLatency, direct, nil
	}
	t.misses.Inc()
	pa, err = t.pt.EnsureMapped(va)
	if err != nil {
		return 0, 0, direct, err
	}
	e := tlbEntry{vpn: vpn, pfn: uint64(pa) >> PageShift, used: t.clock}
	var slot int32
	if len(t.entries) < t.cfg.Entries {
		t.entries = append(t.entries, e)
		slot = int32(len(t.entries) - 1)
	} else {
		// The tail holds the smallest used stamp: the true-LRU victim.
		slot = t.tail
		t.unlink(slot)
		delete(t.index, t.entries[slot].vpn)
		t.entries[slot] = e
	}
	t.index[vpn] = slot
	t.pushFront(slot)
	return pa, t.cfg.HitLatency + t.cfg.WalkLatency, direct, nil
}

// HitRate returns the TLB hit fraction so far.
func (t *TLB) HitRate() float64 {
	return stats.Ratio(t.hits.Value(), t.hits.Value()+t.misses.Value())
}

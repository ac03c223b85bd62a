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
	"math/bits"

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
	// translation. It is an open-addressed, linearly probed table of
	// slot+1 (0 is empty) with at least twice as many buckets as
	// entries, so it never grows and a probe run stays short.
	index []int32
	// head and tail are the most and least recently used entries of the
	// intrusive recency list threaded through entries, so the LRU
	// victim is tail in O(1). The used stamps stay (they are unique per
	// translation) and are what snapshots carry; the list is rebuilt
	// from them on restore.
	head, tail int32
	clock      uint64

	ctr TLBCounters
}

// NewTLB builds a TLB over the given page table.
func NewTLB(pt *PageTable, cfg Config) *TLB {
	if cfg.Entries <= 0 {
		panic(fmt.Sprintf("mmu %s: non-positive TLB entries", cfg.Name))
	}
	if cfg.DirectLimit < cfg.DirectBase {
		panic(fmt.Sprintf("mmu %s: inverted direct-store range", cfg.Name))
	}
	buckets := 1
	for buckets < 2*cfg.Entries {
		buckets *= 2
	}
	return &TLB{cfg: cfg, pt: pt, entries: make([]tlbEntry, 0, cfg.Entries),
		index: make([]int32, buckets), head: -1, tail: -1}
}

// bucket returns vpn's home bucket in index (Fibonacci hashing: the
// top bits of the product spread consecutive pages evenly).
func (t *TLB) bucket(vpn uint64) int {
	return int((vpn * 0x9e3779b97f4a7c15) >> (64 - bits.TrailingZeros(uint(len(t.index)))))
}

// lookup returns the entry slot holding vpn.
func (t *TLB) lookup(vpn uint64) (int32, bool) {
	mask := len(t.index) - 1
	for b := t.bucket(vpn); ; b = (b + 1) & mask {
		s := t.index[b]
		if s == 0 {
			return 0, false
		}
		if t.entries[s-1].vpn == vpn {
			return s - 1, true
		}
	}
}

// insertIndex records that entry slot holds vpn, which is absent.
func (t *TLB) insertIndex(vpn uint64, slot int32) {
	mask := len(t.index) - 1
	b := t.bucket(vpn)
	for t.index[b] != 0 {
		b = (b + 1) & mask
	}
	t.index[b] = slot + 1
}

// removeIndex drops vpn, which is present, and shifts later members of
// its probe run back so that no lookup stops short at the hole.
func (t *TLB) removeIndex(vpn uint64) {
	mask := len(t.index) - 1
	hole := t.bucket(vpn)
	for t.entries[t.index[hole]-1].vpn != vpn {
		hole = (hole + 1) & mask
	}
	for b := (hole + 1) & mask; t.index[b] != 0; b = (b + 1) & mask {
		// The member at b may fill the hole unless its home lies
		// cyclically in (hole, b]: then the hole is before its home.
		home := t.bucket(t.entries[t.index[b]-1].vpn)
		if (b-home)&mask < (b-hole)&mask {
			continue
		}
		t.index[hole] = t.index[b]
		hole = b
	}
	t.index[hole] = 0
}

// TLBCounters are a TLB's hit, miss and direct-store detection counts.
type TLBCounters struct {
	Hits, Misses, DirectDetected uint64
}

// Rows lists the counters by name, in dump and snapshot order.
func (c *TLBCounters) Rows() stats.Rows {
	return stats.Rows{
		{Name: "hits", N: &c.Hits},
		{Name: "misses", N: &c.Misses},
		{Name: "direct_detected", N: &c.DirectDetected},
	}
}

// Get returns the named counter; an undeclared name panics.
func (c *TLBCounters) Get(name string) uint64 { return c.Rows().Get(name) }

// Counters exposes hit/miss/direct-detection counters.
func (t *TLB) Counters() *TLBCounters { return &t.ctr }

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
		t.ctr.DirectDetected++
	}
	vpn := uint64(va) >> PageShift
	t.clock++
	if i, ok := t.lookup(vpn); ok {
		t.ctr.Hits++
		t.entries[i].used = t.clock
		if i != t.head {
			t.unlink(i)
			t.pushFront(i)
		}
		pfn := t.entries[i].pfn
		return memsys.Addr(pfn<<PageShift | uint64(va)&(PageSize-1)), t.cfg.HitLatency, direct, nil
	}
	t.ctr.Misses++
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
		t.removeIndex(t.entries[slot].vpn)
		t.entries[slot] = e
	}
	t.insertIndex(vpn, slot)
	t.pushFront(slot)
	return pa, t.cfg.HitLatency + t.cfg.WalkLatency, direct, nil
}

// HitRate returns the TLB hit fraction so far.
func (t *TLB) HitRate() float64 {
	return stats.Ratio(t.ctr.Hits, t.ctr.Hits+t.ctr.Misses)
}

package mmu

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dstore/internal/memalloc"
	"dstore/internal/memsys"
)

func newTLB(entries int) (*PageTable, *TLB) {
	pt := NewPageTable(1 << 30)
	tlb := NewTLB(pt, Config{
		Name:        "t",
		Entries:     entries,
		HitLatency:  1,
		WalkLatency: 50,
		DirectBase:  memalloc.DirectStoreBase,
		DirectLimit: memalloc.DirectStoreLimit,
	})
	return pt, tlb
}

func TestPageTableDemandAllocation(t *testing.T) {
	pt := NewPageTable(1 << 20)
	if _, ok := pt.Lookup(0x1234); ok {
		t.Error("lookup hit before any mapping")
	}
	pa, err := pt.EnsureMapped(0x1234)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(pa)&(PageSize-1) != 0x234 {
		t.Errorf("page offset not preserved: pa=%#x", uint64(pa))
	}
	pa2, ok := pt.Lookup(0x1234)
	if !ok || pa2 != pa {
		t.Error("lookup after mapping disagrees")
	}
	if pt.MappedPages() != 1 {
		t.Errorf("MappedPages=%d, want 1", pt.MappedPages())
	}
}

func TestPageTableSamePageSameFrame(t *testing.T) {
	pt := NewPageTable(1 << 20)
	a, _ := pt.EnsureMapped(0x1000)
	b, _ := pt.EnsureMapped(0x1fff)
	if uint64(a)>>PageShift != uint64(b)>>PageShift {
		t.Error("same virtual page mapped to different frames")
	}
}

func TestPageTableDistinctPagesDistinctFrames(t *testing.T) {
	pt := NewPageTable(1 << 20)
	a, _ := pt.EnsureMapped(0x1000)
	b, _ := pt.EnsureMapped(0x2000)
	if uint64(a)>>PageShift == uint64(b)>>PageShift {
		t.Error("distinct pages share a frame")
	}
}

func TestPageTableExhaustion(t *testing.T) {
	pt := NewPageTable(2 * PageSize)
	if _, err := pt.EnsureMapped(0); err != nil {
		t.Fatal(err)
	}
	if _, err := pt.EnsureMapped(PageSize); err != nil {
		t.Fatal(err)
	}
	if _, err := pt.EnsureMapped(2 * PageSize); err == nil {
		t.Error("mapping beyond physical memory succeeded")
	}
	// Re-touching a mapped page still works after exhaustion.
	if _, err := pt.EnsureMapped(100); err != nil {
		t.Errorf("remap of resident page failed: %v", err)
	}
}

func TestTLBHitAfterMiss(t *testing.T) {
	_, tlb := newTLB(4)
	_, lat1, _, err := tlb.Translate(0x5000)
	if err != nil {
		t.Fatal(err)
	}
	if lat1 != 51 {
		t.Errorf("miss latency %d, want hit+walk=51", lat1)
	}
	_, lat2, _, _ := tlb.Translate(0x5010)
	if lat2 != 1 {
		t.Errorf("hit latency %d, want 1", lat2)
	}
	if tlb.Counters().Get("hits") != 1 || tlb.Counters().Get("misses") != 1 {
		t.Error("hit/miss counters wrong")
	}
}

func TestTLBLRUEviction(t *testing.T) {
	_, tlb := newTLB(2)
	tlb.Translate(0x1000) // miss
	tlb.Translate(0x2000) // miss
	tlb.Translate(0x1000) // hit; 0x2000 becomes LRU
	tlb.Translate(0x3000) // miss, evicts 0x2000
	_, lat, _, _ := tlb.Translate(0x1000)
	if lat != 1 {
		t.Error("protected entry was evicted")
	}
	_, lat, _, _ = tlb.Translate(0x2000)
	if lat == 1 {
		t.Error("LRU entry survived eviction")
	}
}

func TestTLBTranslationMatchesPageTable(t *testing.T) {
	pt, tlb := newTLB(8)
	va := memsys.Addr(0x12345)
	pa1, _, _, _ := tlb.Translate(va)
	pa2, ok := pt.Lookup(va)
	if !ok || pa1 != pa2 {
		t.Errorf("TLB pa %#x != page table pa %#x", uint64(pa1), uint64(pa2))
	}
}

func TestDirectDetector(t *testing.T) {
	_, tlb := newTLB(4)
	if tlb.IsDirect(0x1000) {
		t.Error("low address detected as direct")
	}
	if !tlb.IsDirect(memalloc.DirectStoreBase) {
		t.Error("arena base not detected")
	}
	if !tlb.IsDirect(memalloc.DirectStoreBase + 12345) {
		t.Error("arena interior not detected")
	}
	if tlb.IsDirect(memalloc.DirectStoreLimit) {
		t.Error("arena limit detected as direct")
	}
}

func TestTranslateReportsDirectAndCounts(t *testing.T) {
	_, tlb := newTLB(4)
	_, _, direct, err := tlb.Translate(memalloc.DirectStoreBase + 64)
	if err != nil {
		t.Fatal(err)
	}
	if !direct {
		t.Error("translate did not flag direct address")
	}
	_, _, direct, _ = tlb.Translate(0x4000)
	if direct {
		t.Error("translate flagged ordinary address")
	}
	if tlb.Counters().Get("direct_detected") != 1 {
		t.Error("direct detection counter wrong")
	}
}

func TestTLBHitRate(t *testing.T) {
	_, tlb := newTLB(4)
	tlb.Translate(0x1000)
	tlb.Translate(0x1000)
	tlb.Translate(0x1000)
	tlb.Translate(0x1000)
	if hr := tlb.HitRate(); hr != 0.75 {
		t.Errorf("hit rate %v, want 0.75", hr)
	}
}

func TestTLBPropagatesExhaustion(t *testing.T) {
	pt := NewPageTable(PageSize)
	tlb := NewTLB(pt, Config{Name: "x", Entries: 2, DirectBase: 1 << 40, DirectLimit: 1 << 41})
	if _, _, _, err := tlb.Translate(0); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := tlb.Translate(PageSize); err == nil {
		t.Error("exhaustion not propagated")
	}
}

func TestBadConfigPanics(t *testing.T) {
	pt := NewPageTable(1 << 20)
	for _, cfg := range []Config{
		{Name: "no-entries", Entries: 0},
		{Name: "inverted", Entries: 4, DirectBase: 100, DirectLimit: 50},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %s did not panic", cfg.Name)
				}
			}()
			NewTLB(pt, cfg)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("tiny page table did not panic")
			}
		}()
		NewPageTable(100)
	}()
}

// Property: translation preserves page offsets and is stable (same VA
// always yields the same PA).
func TestPropertyTranslationStable(t *testing.T) {
	f := func(vas []uint32) bool {
		_, tlb := newTLB(16)
		first := make(map[memsys.Addr]memsys.Addr)
		for _, v := range vas {
			va := memsys.Addr(v)
			pa, _, _, err := tlb.Translate(va)
			if err != nil {
				return false
			}
			if uint64(pa)&(PageSize-1) != uint64(va)&(PageSize-1) {
				return false
			}
			if prev, ok := first[va]; ok && prev != pa {
				return false
			}
			first[va] = pa
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: the detector agrees with the memalloc classifier for every
// address.
func TestPropertyDetectorMatchesAllocator(t *testing.T) {
	_, tlb := newTLB(4)
	f := func(a uint64) bool {
		return tlb.IsDirect(memsys.Addr(a)) == memalloc.InDirectRegion(memsys.Addr(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestTLBIndexConsistent churns small TLBs through streams that
// collide in the open-addressed index and checks after every
// translation that each entry is found at its own slot and that the
// index holds exactly one bucket per entry: a deletion that broke a
// probe run would lose an entry or leave a stale one.
func TestTLBIndexConsistent(t *testing.T) {
	for _, entries := range []int{1, 3, 8, 20} {
		_, tlb := newTLB(entries)
		rng := rand.New(rand.NewSource(int64(entries)))
		for i := 0; i < 5000; i++ {
			va := memsys.Addr(rng.Intn(3*entries+2)) << PageShift
			if _, _, _, err := tlb.Translate(va); err != nil {
				t.Fatal(err)
			}
			used := 0
			for _, s := range tlb.index {
				if s != 0 {
					used++
				}
			}
			if used != len(tlb.entries) {
				t.Fatalf("%d entries, step %d: %d index buckets in use, want %d", entries, i, used, len(tlb.entries))
			}
			for slot, e := range tlb.entries {
				if got, ok := tlb.lookup(e.vpn); !ok || got != int32(slot) {
					t.Fatalf("%d entries, step %d: page %#x at slot %d, index says %d (found %v)", entries, i, e.vpn, slot, got, ok)
				}
			}
		}
	}
}

// TestTranslateZeroAllocs: once every page of the stream is mapped, a
// translation, hit or miss with eviction, allocates nothing.
func TestTranslateZeroAllocs(t *testing.T) {
	_, tlb := newTLB(64)
	// Every other translation is of one hot page, which stays resident;
	// the rest sweep more pages than the TLB holds, so they miss and
	// evict.
	const pages = 200
	va := func(i int) memsys.Addr {
		if i%2 == 0 {
			return 0
		}
		return memsys.Addr(i*7%pages) << PageShift
	}
	for i := 0; i < pages; i++ {
		if _, _, _, err := tlb.Translate(va(i)); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		tlb.Translate(va(i))
		i++
	})
	if allocs != 0 {
		t.Errorf("Translate allocated %.1f times per call, want 0", allocs)
	}
	if c := tlb.Counters(); c.Hits == 0 || c.Misses <= pages {
		t.Errorf("%d hits and %d misses: the stream should both hit and evict", c.Hits, c.Misses)
	}
}

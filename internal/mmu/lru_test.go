package mmu

import (
	"bytes"
	"math/rand"
	"testing"

	"dstore/internal/memalloc"
	"dstore/internal/memsys"
	"dstore/internal/snap"
)

// refTLB is the linear-scan true-LRU TLB the recency list replaced:
// entries in fill order, each stamped with the translation clock, and
// the smallest stamp evicted by a full scan. It writes the TLB's
// snapshot format, so the two can be compared byte for byte.
type refTLB struct {
	name    string
	size    int
	pt      *PageTable
	entries []refEntry
	clock   uint64
	ctr     TLBCounters
}

type refEntry struct{ vpn, pfn, used uint64 }

func newRefTLB(name string, size int) *refTLB {
	return &refTLB{name: name, size: size, pt: NewPageTable(1 << 30)}
}

// translate returns whether va hit, and the evicted vpn on a miss that
// replaced an entry.
func (r *refTLB) translate(va memsys.Addr) (hit bool, victim uint64, evicted bool) {
	if va >= memalloc.DirectStoreBase && va < memalloc.DirectStoreLimit {
		r.ctr.DirectDetected++
	}
	vpn := uint64(va) >> PageShift
	r.clock++
	for i := range r.entries {
		if r.entries[i].vpn == vpn {
			r.ctr.Hits++
			r.entries[i].used = r.clock
			return true, 0, false
		}
	}
	r.ctr.Misses++
	pa, err := r.pt.EnsureMapped(va)
	if err != nil {
		panic(err)
	}
	e := refEntry{vpn: vpn, pfn: uint64(pa) >> PageShift, used: r.clock}
	if len(r.entries) < r.size {
		r.entries = append(r.entries, e)
		return false, 0, false
	}
	v := 0
	for i := range r.entries {
		if r.entries[i].used < r.entries[v].used {
			v = i
		}
	}
	victim = r.entries[v].vpn
	r.entries[v] = e
	return false, victim, true
}

func (r *refTLB) snapshot() []byte {
	var w snap.Writer
	w.Tag("tlb")
	w.String(r.name)
	w.U64(r.clock)
	w.U32(uint32(len(r.entries)))
	for _, e := range r.entries {
		w.U64(e.vpn)
		w.U64(e.pfn)
		w.U64(e.used)
	}
	r.ctr.Rows().SnapshotTo(&w)
	return w.Bytes()
}

func tlbSnapshot(t *TLB) []byte {
	var w snap.Writer
	t.SnapshotTo(&w)
	return w.Bytes()
}

// translateObserved runs one translation and reports what the
// reference reports, observing the victim from the TLB's contents.
func translateObserved(tb testing.TB, t *TLB, va memsys.Addr) (hit bool, victim uint64, evicted bool) {
	before := make(map[uint64]bool, len(t.entries))
	for _, e := range t.entries {
		before[e.vpn] = true
	}
	_, lat, _, err := t.Translate(va)
	if err != nil {
		tb.Fatal(err)
	}
	if lat == t.cfg.HitLatency {
		return true, 0, false
	}
	for _, e := range t.entries {
		delete(before, e.vpn)
	}
	for vpn := range before { //dstore:allow-maprange at most one key remains
		return false, vpn, true
	}
	return false, 0, false
}

// vaStream draws n addresses over span pages with a hot subset, so
// streams mix hits, cold misses and evictions; every fourth stream
// also touches the direct-store range.
func vaStream(rng *rand.Rand, n, span int, direct bool) []memsys.Addr {
	hot := 1 + span/4
	out := make([]memsys.Addr, n)
	for i := range out {
		p := rng.Intn(span)
		if rng.Intn(2) == 0 {
			p = rng.Intn(hot)
		}
		base := memsys.Addr(0x4000_0000)
		if direct && rng.Intn(4) == 0 {
			base = memalloc.DirectStoreBase
		}
		out[i] = base + memsys.Addr(p)<<PageShift + memsys.Addr(rng.Intn(PageSize))
	}
	return out
}

// TestPropertyTLBMatchesLinearScanLRU feeds seeded random streams to
// the TLB and to the linear-scan reference: every translation must
// agree on hit or miss and on the victim, and the snapshot bytes must
// match after the stream.
func TestPropertyTLBMatchesLinearScanLRU(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		size := 1 + rng.Intn(64)
		span := 1 + rng.Intn(4*size)
		_, tlb := newTLB(size)
		ref := newRefTLB("t", size)
		for i, va := range vaStream(rng, 3000, span, seed%4 == 0) {
			gh, gv, ge := translateObserved(t, tlb, va)
			wh, wv, we := ref.translate(va)
			if gh != wh || gv != wv || ge != we {
				t.Fatalf("seed %d step %d (size %d, span %d): got hit=%v victim=%#x evicted=%v, reference hit=%v victim=%#x evicted=%v",
					seed, i, size, span, gh, gv, ge, wh, wv, we)
			}
		}
		if got, want := tlbSnapshot(tlb), ref.snapshot(); !bytes.Equal(got, want) {
			t.Fatalf("seed %d: snapshot bytes differ from the reference's", seed)
		}
	}
}

// TestTLBRestoreThenContinue checks that a TLB restored mid-stream
// (with its page table) continues exactly as the uninterrupted one:
// same hits, misses and victims, and the same final snapshot.
func TestTLBRestoreThenContinue(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		size := 1 + rng.Intn(32)
		stream := vaStream(rng, 2000, 1+rng.Intn(4*size), false)
		cut := rng.Intn(len(stream))

		pt, tlb := newTLB(size)
		for _, va := range stream[:cut] {
			translateObserved(t, tlb, va)
		}
		var w snap.Writer
		pt.SnapshotTo(&w)
		tlb.SnapshotTo(&w)
		pt2, tlb2 := newTLB(size)
		r := snap.NewReader(w.Bytes())
		pt2.RestoreFrom(r)
		tlb2.RestoreFrom(r)
		if err := r.Done(); err != nil {
			t.Fatalf("seed %d: restore: %v", seed, err)
		}
		for i, va := range stream[cut:] {
			gh, gv, ge := translateObserved(t, tlb2, va)
			wh, wv, we := translateObserved(t, tlb, va)
			if gh != wh || gv != wv || ge != we {
				t.Fatalf("seed %d step %d after restore at %d: got hit=%v victim=%#x, uninterrupted hit=%v victim=%#x",
					seed, cut+i, cut, gh, gv, wh, wv)
			}
		}
		if !bytes.Equal(tlbSnapshot(tlb2), tlbSnapshot(tlb)) {
			t.Fatalf("seed %d: restored run's final snapshot differs", seed)
		}
	}
}

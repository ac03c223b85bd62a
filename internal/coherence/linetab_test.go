package coherence

import (
	"slices"
	"testing"

	"dstore/internal/cache"
	"dstore/internal/memsys"
)

func lineAddr(n uint64) memsys.Addr { return memsys.Addr(n << memsys.LineShift) }

// TestLineTabPointersStayValid pins the paged table's pointer rule: an
// entry pointer survives any number of later writes, however far they
// extend the table.
func TestLineTabPointersStayValid(t *testing.T) {
	tab := newLineTab(0, 0)
	p := tab.at(lineAddr(3))
	*p = 7
	for n := uint64(100); n < 20*pageLen; n += 97 {
		*tab.at(lineAddr(n)) = n
	}
	*tab.at(lineAddr(1 << 22)) = 1
	if *p != 7 || tab.get(lineAddr(3)) != 7 {
		t.Fatalf("line 3 reads %d through the old pointer, %d through get; want 7", *p, tab.get(lineAddr(3)))
	}
	*p = 9
	if tab.get(lineAddr(3)) != 9 {
		t.Fatal("write through an old pointer was lost")
	}
}

// TestLineTabEachAscendingGlobal checks that a slice's table reports
// entries under their global line numbers, in ascending order.
func TestLineTabEachAscendingGlobal(t *testing.T) {
	tab := newLineTab(2, 3)
	for _, n := range []uint64{4099, 7, 3, 2051} {
		*tab.at(lineAddr(n)) = n
	}
	var got []uint64
	tab.each(func(n, v uint64) {
		if v != n {
			t.Errorf("line %d holds %d", n, v)
		}
		got = append(got, n)
	})
	if want := []uint64{3, 7, 2051, 4099}; !slices.Equal(got, want) {
		t.Fatalf("each visited %v, want %v", got, want)
	}
}

// TestVerReadsDoNotAllocate: the version oracles read through the
// table without growing it, so an invariant sweep over every mapped
// line cannot inflate a controller's table.
func TestVerReadsDoNotAllocate(t *testing.T) {
	r := newRig(t, 4, 1024, 2)
	r.do(r.gpu, memsys.Store, lineAddr(1), 3)
	ctrlPages, memPages := len(r.gpu.lines.pages), len(r.mem.dramVer.pages)
	// Each call reads a line further out than any before it, so a read
	// that grew the table would allocate every time.
	far := lineAddr(1 << 14)
	next := func() memsys.Addr { far += lineAddr(1 << 14); return far }
	if n := testing.AllocsPerRun(100, func() { _ = r.gpu.Ver(next()) }); n != 0 {
		t.Errorf("Ctrl.Ver allocated %v times per call", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = r.mem.MemVer(next()) }); n != 0 {
		t.Errorf("MemCtrl.MemVer allocated %v times per call", n)
	}
	if r.gpu.Ver(far) != 0 || r.mem.MemVer(far) != 0 {
		t.Error("untouched line has a version")
	}
	if len(r.gpu.lines.pages) != ctrlPages || len(r.mem.dramVer.pages) != memPages {
		t.Errorf("reads grew the tables from %d and %d pages to %d and %d",
			ctrlPages, memPages, len(r.gpu.lines.pages), len(r.mem.dramVer.pages))
	}
}

// TestSliceVerOfForeignLineIsZero: a slice's table is indexed by
// LineNum >> IndexShift, so each of its entries also stands for three
// lines the other slices own. Reading one of those must not alias the
// owned entry.
func TestSliceVerOfForeignLineIsZero(t *testing.T) {
	r := newRig(t, 4, 1024, 2)
	slice := NewCtrl(r.e, CtrlConfig{
		Name:     "gpu1",
		L2:       cache.Config{Name: "gpu1.l2", SizeBytes: 1024, Ways: 2, IndexShift: 2},
		L2HitLat: 12, MSHRs: 4, Slice: 1,
	}, r.xbar, r.mem)
	owned := lineAddr(5) // 5 mod 4 = 1, entry 5 >> 2 = 1
	r.do(slice, memsys.Store, owned, 11)
	if v := slice.Ver(owned); v != 11 {
		t.Fatalf("owned line version %d, want 11", v)
	}
	for _, n := range []uint64{4, 6, 7} { // entry 1 of slices 0, 2, 3
		if v := slice.Ver(lineAddr(n)); v != 0 {
			t.Errorf("slice 1 reports version %d for line %d of another slice", v, n)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("writing another slice's line did not panic")
		}
	}()
	slice.lines.at(lineAddr(4))
}

// pagesHeld counts a table's allocated pages.
func pagesHeld(t *lineTab) int {
	n := 0
	for _, p := range t.pages {
		if p != nil {
			n++
		}
	}
	return n
}

// TestReadsAllocateNoPages: probes and misses of lines a controller
// never held add no page to its line table. Only a write of a version
// (the requester's fill or store) may. Each line lies on a page of its
// own, so any page a step allocates shows.
func TestReadsAllocateNoPages(t *testing.T) {
	// Every line below maps to set 0; four ways hold them all.
	r := newRig(t, 4, 4096, 4)
	line := func(i uint64) memsys.Addr { return lineAddr(i * 4 * pageLen) }
	steps := []struct {
		name           string
		c              *Ctrl
		typ            memsys.AccessType
		ver            uint64
		cpuAdd, gpuAdd int
	}{
		// The CPU is probed for a line it never held; the GPU's
		// store writes its version.
		{"GPU store miss", r.gpu, memsys.Store, 7, 0, 1},
		// Nobody holds the line and memory has no version: the
		// fill writes version 0, which needs no page.
		{"CPU load miss", r.cpu, memsys.Load, 0, 0, 0},
		{"GPU load miss", r.gpu, memsys.Load, 0, 0, 0},
		{"CPU store miss", r.cpu, memsys.Store, 9, 1, 0},
		// A direct store from a CPU that never held the line: only
		// the slice's install writes.
		{"CPU direct store", r.cpu, memsys.RemoteStore, 11, 0, 1},
	}
	for i, s := range steps {
		cpu, gpu, mem := pagesHeld(&r.cpu.lines), pagesHeld(&r.gpu.lines), pagesHeld(&r.mem.dramVer)
		r.do(s.c, s.typ, line(uint64(i+1)), s.ver)
		if d := pagesHeld(&r.cpu.lines) - cpu; d != s.cpuAdd {
			t.Errorf("%s: the CPU's table gained %d pages, want %d", s.name, d, s.cpuAdd)
		}
		if d := pagesHeld(&r.gpu.lines) - gpu; d != s.gpuAdd {
			t.Errorf("%s: the GPU's table gained %d pages, want %d", s.name, d, s.gpuAdd)
		}
		if d := pagesHeld(&r.mem.dramVer) - mem; d != 0 {
			t.Errorf("%s: memory's table gained %d pages, want 0", s.name, d)
		}
	}
}

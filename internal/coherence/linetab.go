package coherence

import (
	"fmt"

	"dstore/internal/freelist"
	"dstore/internal/memsys"
)

// pageBits sets a lineTab page to 1<<pageBits entries.
const (
	pageBits = 10
	pageLen  = 1 << pageBits
	pageMask = pageLen - 1
)

// lineTab is a dense per-line table of versions. The page table
// allocates physical frames sequentially from zero, so the line numbers
// a workload touches form a compact prefix and a flat table replaces
// the per-address hash maps on the protocol hot path: a lookup is an
// index instead of a hash probe, and steady state allocates nothing.
//
// The table is paged: fixed-size pages are allocated on the first
// nonzero write and never move, so growth copies no entries and a
// pointer returned by at() stays valid until release (a snapshot
// restore releases the whole table first). Pages come from verPages,
// zeroed, and release gives them back.
//
// A table may hold one slice's share of an interleaved address space:
// the lines whose number has part in its low shift bits, stored at
// LineNum >> shift (the same bits a sliced L2 strips for set
// indexing). A zero shift holds every line.
//
// Version 0 means "no version recorded": a line never written reads 0,
// and writing 0 (set or clear) allocates no page.
type lineTab struct {
	pages []*[pageLen]uint64
	shift uint
	part  uint64
}

// verPages is the page free list of every line table.
var verPages = freelist.New[uint64](freelist.MachineBytes)

// newLineTab returns an empty table holding the lines whose low shift
// line-number bits equal part.
func newLineTab(shift uint, part uint64) lineTab {
	if part>>shift != 0 {
		panic(fmt.Sprintf("coherence: line table part %d out of range for shift %d", part, shift))
	}
	return lineTab{shift: shift, part: part}
}

// local returns a held line's entry index, or false for a line of
// another part.
func (t *lineTab) local(line memsys.Addr) (uint64, bool) {
	n := memsys.LineNum(line)
	return n >> t.shift, n&(1<<t.shift-1) == t.part
}

// at returns the entry for a held line, allocating its page on first
// use. A line of another part is a routing bug and panics.
func (t *lineTab) at(line memsys.Addr) *uint64 {
	i, ok := t.local(line)
	if !ok {
		panic(fmt.Sprintf("coherence: line %#x is not held by table part %d", uint64(line), t.part))
	}
	return t.atIndex(i)
}

// atIndex is at() addressed by entry index.
func (t *lineTab) atIndex(i uint64) *uint64 {
	p := i >> pageBits
	if p >= uint64(len(t.pages)) || t.pages[p] == nil {
		t.addPage(p)
	}
	return &t.pages[p][i&pageMask]
}

func (t *lineTab) addPage(p uint64) {
	for p >= uint64(len(t.pages)) {
		t.pages = append(t.pages, nil)
	}
	t.pages[p] = (*[pageLen]uint64)(verPages.Get(pageLen))
}

// set writes a held line's version. A zero version clears the entry
// instead, so it allocates no page for a line the table never held.
func (t *lineTab) set(line memsys.Addr, v uint64) {
	if v == 0 {
		t.clear(line)
		return
	}
	*t.at(line) = v
}

// clear zeroes a held line's entry if its page exists; it never
// allocates.
func (t *lineTab) clear(line memsys.Addr) {
	i, ok := t.local(line)
	if !ok {
		panic(fmt.Sprintf("coherence: line %#x is not held by table part %d", uint64(line), t.part))
	}
	if p := i >> pageBits; p < uint64(len(t.pages)) && t.pages[p] != nil {
		t.pages[p][i&pageMask] = 0
	}
}

// release gives every page to the free list and leaves the table
// empty.
func (t *lineTab) release() {
	for _, page := range t.pages {
		if page != nil {
			verPages.Put(page[:])
		}
	}
	t.pages = nil
}

// get returns a line's version without allocating: 0 for a line never
// written or of another part.
func (t *lineTab) get(line memsys.Addr) uint64 {
	i, ok := t.local(line)
	if !ok {
		return 0
	}
	if p := i >> pageBits; p < uint64(len(t.pages)) && t.pages[p] != nil {
		return t.pages[p][i&pageMask]
	}
	return 0
}

// each calls f for every nonzero entry in ascending line order,
// passing the entry's global line number (LineNum of its address).
func (t *lineTab) each(f func(line, v uint64)) {
	for p, page := range t.pages {
		if page == nil {
			continue
		}
		for j, v := range page {
			if v != 0 {
				f((uint64(p)<<pageBits|uint64(j))<<t.shift|t.part, v)
			}
		}
	}
}

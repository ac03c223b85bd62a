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

// lineTab is a dense per-line table. The page table allocates physical
// frames sequentially from zero, so the line numbers a workload touches
// form a compact prefix and a flat table replaces the per-address hash
// maps on the protocol hot path: a lookup is an index instead of a
// hash probe, and steady state allocates nothing.
//
// The table is paged: fixed-size pages are allocated on first write
// and never move, so growth copies no entries and a pointer returned
// by at() stays valid until release (a snapshot restore releases the
// whole table first). Pages come from the table's free list, zeroed,
// and release gives them back.
//
// A table may hold one slice's share of an interleaved address space:
// the lines whose number has part in its low shift bits, stored at
// LineNum >> shift (the same bits a sliced L2 strips for set
// indexing). A zero shift holds every line.
//
// The zero value of T must mean "absent" (version 0, no flags, nil
// transaction): clearing an entry writes the zero value, exactly
// mirroring the map-delete semantics it replaces.
type lineTab[T any] struct {
	pages []*[pageLen]T
	shift uint
	part  uint64
	free  *freelist.List[T]
}

// The page free lists, one per entry type.
var (
	statePages = freelist.New[lineState](freelist.MachineBytes)
	txnPages   = freelist.New[*txn](freelist.MachineBytes)
	verPages   = freelist.New[uint64](freelist.MachineBytes)
)

// newLineTab returns an empty table holding the lines whose low shift
// line-number bits equal part, drawing its pages from free.
func newLineTab[T any](shift uint, part uint64, free *freelist.List[T]) lineTab[T] {
	if part>>shift != 0 {
		panic(fmt.Sprintf("coherence: line table part %d out of range for shift %d", part, shift))
	}
	return lineTab[T]{shift: shift, part: part, free: free}
}

// local returns a held line's entry index, or false for a line of
// another part.
func (t *lineTab[T]) local(line memsys.Addr) (uint64, bool) {
	n := memsys.LineNum(line)
	return n >> t.shift, n&(1<<t.shift-1) == t.part
}

// at returns the entry for a held line, allocating its page on first
// use. A line of another part is a routing bug and panics.
func (t *lineTab[T]) at(line memsys.Addr) *T {
	i, ok := t.local(line)
	if !ok {
		panic(fmt.Sprintf("coherence: line %#x is not held by table part %d", uint64(line), t.part))
	}
	return t.atIndex(i)
}

// atIndex is at() addressed by entry index.
func (t *lineTab[T]) atIndex(i uint64) *T {
	p := i >> pageBits
	if p >= uint64(len(t.pages)) || t.pages[p] == nil {
		t.addPage(p)
	}
	return &t.pages[p][i&pageMask]
}

func (t *lineTab[T]) addPage(p uint64) {
	for p >= uint64(len(t.pages)) {
		t.pages = append(t.pages, nil)
	}
	t.pages[p] = (*[pageLen]T)(t.free.Get(pageLen))
}

// release gives every page to the free list and leaves the table
// empty.
func (t *lineTab[T]) release() {
	for _, page := range t.pages {
		if page != nil {
			t.free.Put(page[:])
		}
	}
	t.pages = nil
}

// get returns a line's entry by value without allocating: the zero
// value for a line never written or of another part.
func (t *lineTab[T]) get(line memsys.Addr) T {
	var zero T
	i, ok := t.local(line)
	if !ok {
		return zero
	}
	if p := i >> pageBits; p < uint64(len(t.pages)) && t.pages[p] != nil {
		return t.pages[p][i&pageMask]
	}
	return zero
}

// each calls f for every allocated entry in ascending line order,
// passing the entry's global line number (LineNum of its address).
func (t *lineTab[T]) each(f func(line uint64, v *T)) {
	for p, page := range t.pages {
		if page == nil {
			continue
		}
		for j := range page {
			f((uint64(p)<<pageBits|uint64(j))<<t.shift|t.part, &page[j])
		}
	}
}

// lineState is a Ctrl's per-line protocol bookkeeping, packing what
// used to live in three separate maps (ver, wbBuf, wbStale) into 16
// bytes.
type lineState struct {
	// ver is the resident data version (the functional oracle standing
	// in for data values); 0 means no version recorded.
	ver uint64
	// wb is the buffered writeback: lsWB and lsWBStale in its top two
	// bits, the version of the in-flight writeback below them (valid
	// only while lsWB is set).
	wb uint64
}

const (
	// lsWB marks a dirty evicted line buffered until the memory
	// controller acknowledges its writeback; probes hitting it supply
	// data from the buffer, closing the eviction race.
	lsWB uint64 = 1 << 63
	// lsWBStale marks a buffered writeback whose line has since been
	// granted exclusively to another agent: the writeback must still
	// reach memory, but the buffered data must neither satisfy local
	// loads nor supply later probes.
	lsWBStale uint64 = 1 << 62
	// wbVerMask selects the writeback version bits of wb.
	wbVerMask = lsWBStale - 1
)

// buffered reports whether the line has a writeback in flight.
func (ls *lineState) buffered() bool { return ls.wb&lsWB != 0 }

// stale reports whether the buffered writeback has been superseded.
func (ls *lineState) stale() bool { return ls.wb&lsWBStale != 0 }

// wbVer returns the buffered writeback's version.
func (ls *lineState) wbVer() uint64 { return ls.wb & wbVerMask }

// bufferWB records a fresh writeback of version ver, clearing any
// staleness. A version reaching the flag bits would corrupt them; at
// one store per tick it takes longer than any simulation can run.
func (ls *lineState) bufferWB(ver uint64) {
	if ver > wbVerMask {
		panic(fmt.Sprintf("coherence: writeback version %d does not fit 62 bits", ver))
	}
	ls.wb = lsWB | ver
}

package cache

import (
	"sync"
	"unsafe"
)

// FreeList is a bounded free list of slices keyed by length, safe for
// concurrent use. A machine's owner gives its arrays back with Put once
// it has read its last result; Put clears each slice, so a held slice
// pins nothing (a *txn page of an abandoned run keeps no machine
// alive) and the next machine's constructors take it with Get exactly
// as a freshly allocated one.
//
// The list holds at most freeListBytes across all lengths; a Put past
// that bound is left to the collector. Unlike a sync.Pool, the list
// survives garbage collection: a daemon collects many times between
// jobs, and each collection would otherwise drop the arrays.
type FreeList[T any] struct {
	mu   sync.Mutex
	bins map[int][][]T
	held int // elements held across all bins
	max  int // bound on held
}

// freeListBytes bounds each free list: room for the arrays of many
// Table I machines (about 0.7 MB each), so a pool of concurrent jobs
// recycles fully, while a sweep over many geometries cannot pin more
// than this per element type.
const freeListBytes = 16 << 20

// NewFreeList returns an empty list.
func NewFreeList[T any]() *FreeList[T] {
	var zero T
	return &FreeList[T]{bins: make(map[int][][]T), max: freeListBytes / int(unsafe.Sizeof(zero))}
}

// Get returns a zeroed slice of length n: a released one when the list
// holds one of that length, a new one otherwise.
func (f *FreeList[T]) Get(n int) []T {
	f.mu.Lock()
	bin := f.bins[n]
	if k := len(bin); k > 0 {
		s := bin[k-1]
		bin[k-1] = nil
		f.bins[n] = bin[:k-1]
		f.held -= n
		f.mu.Unlock()
		return s
	}
	f.mu.Unlock()
	return make([]T, n)
}

// Put clears s and offers it for reuse. The caller must hold no other
// reference to s: the next Get of its length hands it to a new owner.
func (f *FreeList[T]) Put(s []T) {
	n := len(s)
	if n == 0 {
		return
	}
	clear(s)
	f.mu.Lock()
	if f.held+n <= f.max {
		f.bins[n] = append(f.bins[n], s)
		f.held += n
	}
	f.mu.Unlock()
}

// The cache arrays' free lists, one per element type. Tags and LRU
// stamps share one list: both are numSets*ways words.
var (
	lineFree = NewFreeList[Line]()
	wordFree = NewFreeList[uint64]()
	bitFree  = NewFreeList[bool]()
	rrpvFree = NewFreeList[uint8]()
)

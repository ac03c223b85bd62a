package cache

import (
	"fmt"

	"dstore/internal/memsys"
)

// MSHR is a miss-status holding register file. It tracks outstanding
// line fills so that concurrent misses to the same line merge into one
// downstream request, and bounds the number of distinct outstanding
// misses a controller may have in flight. A full MSHR file stalls new
// misses — the key latency-hiding limiter for the GPU when big inputs
// defeat warp parallelism (paper §IV-C).
//
// Capacities are small (a real MSHR file is 8–64 entries), so the
// active set lives in a dense slice scanned linearly: on the simulator
// hot path that beats a hash map on both lookup cost and allocation
// (entries and their Waiters slices are pooled and recycled).
type MSHR struct {
	capacity int
	// addrs mirrors active's line addresses so the hot-path scan walks a
	// flat word array instead of chasing entry pointers.
	addrs  []memsys.Addr
	active []*MSHREntry
	pool   []*MSHREntry
}

// MSHREntry tracks one outstanding line fill and the requests waiting on
// it.
type MSHREntry struct {
	// Addr is the line-aligned address being filled.
	Addr memsys.Addr
	// Waiters are the demand requests merged onto this fill.
	Waiters []*memsys.Request
	// WantExclusive records whether any merged request needs write
	// permission, so the downstream request can be upgraded.
	WantExclusive bool
	// Superseded marks a fill whose line was overwritten by a newer
	// direct-store push while the fill was in flight; the arriving data
	// must be discarded in favour of the pushed copy.
	Superseded bool
}

// NewMSHR returns an MSHR file with the given number of entries.
func NewMSHR(capacity int) *MSHR {
	if capacity <= 0 {
		panic("cache: MSHR capacity must be positive")
	}
	return &MSHR{
		capacity: capacity,
		addrs:    make([]memsys.Addr, 0, capacity),
		active:   make([]*MSHREntry, 0, capacity),
	}
}

// Lookup returns the entry for the line containing a, if one is
// outstanding.
func (m *MSHR) Lookup(a memsys.Addr) (*MSHREntry, bool) {
	la := memsys.LineAlign(a)
	for i, ea := range m.addrs {
		if ea == la {
			return m.active[i], true
		}
	}
	return nil, false
}

// Allocate creates an entry for the line containing a. It returns false
// if the file is full or the line already has an entry (use Lookup+merge
// for the latter).
func (m *MSHR) Allocate(a memsys.Addr) (*MSHREntry, bool) {
	la := memsys.LineAlign(a)
	for _, ea := range m.addrs {
		if ea == la {
			return nil, false
		}
	}
	if len(m.active) >= m.capacity {
		return nil, false
	}
	var e *MSHREntry
	if n := len(m.pool); n > 0 {
		e = m.pool[n-1]
		m.pool = m.pool[:n-1]
		e.Addr = la
		e.Waiters = e.Waiters[:0]
		e.WantExclusive = false
		e.Superseded = false
	} else {
		e = &MSHREntry{Addr: la}
	}
	m.addrs = append(m.addrs, la)
	m.active = append(m.active, e)
	return e, true
}

// Free removes the entry for the line containing a and returns its
// waiters for completion. It panics if no entry exists: a fill response
// without an outstanding miss is a protocol bug.
//
// The entry is recycled, so the returned slice is only valid until the
// next Allocate on this MSHR. Callers in the simulator schedule all
// waiter completions and replays before any new miss can allocate, so
// the window is safe; callers that need the waiters longer must copy.
func (m *MSHR) Free(a memsys.Addr) []*memsys.Request {
	la := memsys.LineAlign(a)
	for i, ea := range m.addrs {
		if ea == la {
			e := m.active[i]
			m.addrs = append(m.addrs[:i], m.addrs[i+1:]...)
			m.active = append(m.active[:i], m.active[i+1:]...)
			m.pool = append(m.pool, e)
			return e.Waiters
		}
	}
	panic(fmt.Sprintf("cache: MSHR free of absent line %#x", uint64(la)))
}

// Full reports whether no further distinct misses can be tracked.
func (m *MSHR) Full() bool { return len(m.active) >= m.capacity }

// Len returns the number of outstanding misses.
func (m *MSHR) Len() int { return len(m.active) }

package serve

import (
	"container/list"
	"sync"

	"dstore/internal/store"
)

// resultCache is a bounded LRU over completed job results, keyed by
// the job's content address. Because the key hashes the full canonical
// spec and every run is a pure function of its spec, a cached body can
// be served for any future identical submission without rerunning the
// simulation.
//
// With a disk store attached (attachDisk), the LRU becomes the hot
// tier of a two-level cache: puts write through to disk, and a memory
// miss falls back to the persistent tier before declaring a true
// miss, so cached bodies survive process restarts.
type resultCache struct {
	mu      sync.Mutex
	cap     int
	ll      *list.List // front = most recently used
	entries map[string]*list.Element

	hits, misses, evictions uint64

	// Persistent tier; nil when the server runs memory-only. disk has
	// its own lock, and all disk I/O happens outside mu so a slow
	// fsync never stalls concurrent memory hits.
	disk *store.Store
	ns   string
}

type cacheEntry struct {
	id   string
	body []byte
}

func newResultCache(capacity int) *resultCache {
	if capacity < 1 {
		capacity = 1
	}
	return &resultCache{
		cap:     capacity,
		ll:      list.New(),
		entries: make(map[string]*list.Element),
	}
}

// attachDisk layers a persistent namespace of st beneath the LRU.
// Call before the cache is shared across goroutines.
func (c *resultCache) attachDisk(st *store.Store, ns string) {
	c.disk = st
	c.ns = ns
}

// Get returns the cached body for id, counting a hit or a miss. Used
// on the submission path, so the hit/miss counters mean "submissions
// answered from cache" (either tier) vs "submissions that had to
// simulate". Get and Put make resultCache a bench.SnapshotStore: the
// snapshot cache counts one probe per memoizable run.
func (c *resultCache) Get(id string) ([]byte, bool) {
	body, ok := c.memGet(id)
	if !ok {
		body, ok = c.diskGet(id)
	}
	c.mu.Lock()
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	c.mu.Unlock()
	return body, ok
}

// lookup is Get without touching the hit/miss counters, for status and
// result reads that are not submissions.
func (c *resultCache) lookup(id string) ([]byte, bool) {
	if body, ok := c.memGet(id); ok {
		return body, true
	}
	return c.diskGet(id)
}

func (c *resultCache) memGet(id string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[id]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).body, true
}

// diskGet consults the persistent tier and promotes a hit into the
// memory LRU so repeat reads stay off the disk.
func (c *resultCache) diskGet(id string) ([]byte, bool) {
	if c.disk == nil {
		return nil, false
	}
	body, ok := c.disk.Get(c.ns, id)
	if !ok {
		return nil, false
	}
	c.memPut(id, body)
	return body, true
}

// Put stores a completed result in the memory LRU and, when a disk
// store is attached, durably on disk. Persistence is best-effort: a
// full or failing disk degrades the server to memory-only behaviour
// rather than failing jobs.
func (c *resultCache) Put(id string, body []byte) {
	c.memPut(id, body)
	if c.disk != nil {
		_ = c.disk.Put(c.ns, id, body)
	}
}

func (c *resultCache) memPut(id string, body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[id]; ok {
		el.Value.(*cacheEntry).body = body
		c.ll.MoveToFront(el)
		return
	}
	c.entries[id] = c.ll.PushFront(&cacheEntry{id: id, body: body})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).id)
		c.evictions++
	}
}

// stats snapshots the counters and current size.
func (c *resultCache) stats() (hits, misses, evictions uint64, size int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions, c.ll.Len()
}

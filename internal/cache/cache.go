// Package cache implements the set-associative cache arrays used by
// every level of the simulated hierarchy, together with the supporting
// structures a timing-accurate controller needs: replacement policies
// (LRU, tree pseudo-LRU, random) and miss-status holding registers
// (MSHRs).
//
// The cache array is purely a tag/state store: coherence protocol state
// is an opaque uint8 owned by the controller (0 always means invalid),
// and data values are not simulated — the experiments measure where
// lines live and how long accesses take, not their contents.
package cache

import (
	"fmt"
	"math/bits"

	"dstore/internal/freelist"
	"dstore/internal/memsys"
	"dstore/internal/stats"
)

// PolicyKind selects a replacement policy.
type PolicyKind string

// Supported replacement policies.
const (
	PolicyLRU      PolicyKind = "lru"
	PolicyTreePLRU PolicyKind = "plru"
	PolicyRandom   PolicyKind = "random"
	PolicySRRIP    PolicyKind = "srrip"
)

// Config describes a cache array.
type Config struct {
	// Name appears in statistics output.
	Name string
	// SizeBytes is the total capacity; must be a multiple of
	// Ways*LineSize and yield a power-of-two set count.
	SizeBytes int
	// Ways is the associativity.
	Ways int
	// Policy selects replacement; empty means LRU.
	Policy PolicyKind
	// Seed feeds the random policy.
	Seed uint64
	// IndexShift drops that many low line-number bits before set
	// indexing. An address-interleaved cache slice must strip its
	// slice-selection bits, otherwise only 1/2^shift of its sets are
	// ever addressed.
	IndexShift uint
}

// Line is one cache-array entry's state. Its tag, the full line
// number, lives in the cache's packed tag array beside it.
type Line struct {
	State uint8
	Dirty bool
}

// Valid reports whether the entry holds a line (state non-zero).
func (l *Line) Valid() bool { return l.State != 0 }

// Victim describes a line displaced by an insertion.
type Victim struct {
	Addr  memsys.Addr
	State uint8
	Dirty bool
}

// Cache is a set-associative tag/state array. It is not safe for
// concurrent use; the event engine serialises all accesses.
type Cache struct {
	cfg     Config
	numSets int
	setMask uint64
	lines   []Line // numSets * Ways, flattened
	// tags[i] is the full line number held by way i when lines[i] is
	// valid and tagInvalid otherwise, so find scans 4 packed bytes per
	// way. Every valid<->invalid transition must keep it in step with
	// lines.
	tags   []uint32
	policy replacementPolicy

	ctr Counters

	// accessHook, when non-nil, observes every demand access
	// (SetAccessHook). It mirrors the accesses/hits/misses counters
	// exactly: fired by Lookup only, never by Touch or Probe.
	accessHook func(a memsys.Addr, hit bool)
}

// New builds a cache from cfg. It panics on malformed geometry: cache
// shapes are static experiment configuration, not runtime input.
func New(cfg Config) *Cache {
	if cfg.Ways <= 0 {
		panic(fmt.Sprintf("cache %s: non-positive ways %d", cfg.Name, cfg.Ways))
	}
	if cfg.SizeBytes <= 0 || cfg.SizeBytes%(cfg.Ways*memsys.LineSize) != 0 {
		panic(fmt.Sprintf("cache %s: size %d not divisible by ways*line", cfg.Name, cfg.SizeBytes))
	}
	numSets := cfg.SizeBytes / (cfg.Ways * memsys.LineSize)
	if bits.OnesCount(uint(numSets)) != 1 {
		panic(fmt.Sprintf("cache %s: set count %d not a power of two", cfg.Name, numSets))
	}
	if cfg.Policy == "" {
		cfg.Policy = PolicyLRU
	}
	c := &Cache{
		cfg:     cfg,
		numSets: numSets,
		setMask: uint64(numSets - 1),
		lines:   lineFree.Get(numSets * cfg.Ways),
		tags:    wordFree.Get(numSets * cfg.Ways),
	}
	for i := range c.tags {
		c.tags[i] = tagInvalid
	}
	switch cfg.Policy {
	case PolicyLRU:
		c.policy = newLRU(numSets, cfg.Ways)
	case PolicyTreePLRU:
		c.policy = newTreePLRU(numSets, cfg.Ways)
	case PolicyRandom:
		c.policy = newRandomPolicy(cfg.Ways, cfg.Seed)
	case PolicySRRIP:
		c.policy = newSRRIP(numSets, cfg.Ways)
	default:
		panic(fmt.Sprintf("cache %s: unknown policy %q", cfg.Name, cfg.Policy))
	}
	return c
}

// Name returns the configured name.
func (c *Cache) Name() string { return c.cfg.Name }

// NumSets returns the number of sets.
func (c *Cache) NumSets() int { return c.numSets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.cfg.Ways }

// CapacityLines returns the total number of lines the array can hold.
func (c *Cache) CapacityLines() int { return c.numSets * c.cfg.Ways }

// Counters are one cache array's event counts.
type Counters struct {
	Accesses, Hits, Misses, Evictions, Writebacks uint64
}

// Rows lists the counters by name, in dump and snapshot order.
func (c *Counters) Rows() stats.Rows {
	return stats.Rows{
		{Name: "accesses", N: &c.Accesses},
		{Name: "hits", N: &c.Hits},
		{Name: "misses", N: &c.Misses},
		{Name: "evictions", N: &c.Evictions},
		{Name: "writebacks", N: &c.Writebacks},
	}
}

// Get returns the named counter; an undeclared name panics.
func (c *Counters) Get(name string) uint64 { return c.Rows().Get(name) }

// Counters exposes the array's counters.
func (c *Cache) Counters() *Counters { return &c.ctr }

func (c *Cache) setOf(a memsys.Addr) int {
	return int((memsys.LineNum(a) >> c.cfg.IndexShift) & c.setMask)
}

func (c *Cache) line(set, way int) *Line {
	return &c.lines[set*c.cfg.Ways+way]
}

// tagInvalid marks an empty way in the packed tag array. Tags are full
// line numbers (physical address >> line shift) below tagInvalid: 32
// bits cover 512 GB of physical memory, and Table I's 2 GB is 2^25
// lines. Insert panics on a line number that does not fit, and find
// reports it absent, so no wider address can alias a held line.
const tagInvalid = ^uint32(0)

// tagOf returns a's tag and whether its line number fits one.
func tagOf(a memsys.Addr) (uint32, bool) {
	n := memsys.LineNum(a)
	return uint32(n), n < uint64(tagInvalid)
}

func (c *Cache) find(a memsys.Addr) (set, way int, ok bool) {
	set = c.setOf(a)
	tag, fits := tagOf(a)
	if !fits {
		return set, -1, false
	}
	base := set * c.cfg.Ways
	ts := c.tags[base : base+c.cfg.Ways]
	for w := range ts {
		if ts[w] == tag {
			return set, w, true
		}
	}
	return set, -1, false
}

// Lookup performs a demand access: it counts an access plus a hit or a
// miss, updates replacement state on a hit, and returns the line's
// protocol state.
func (c *Cache) Lookup(a memsys.Addr) (state uint8, hit bool) {
	c.ctr.Accesses++
	set, way, ok := c.find(a)
	if !ok {
		c.ctr.Misses++
		if c.accessHook != nil {
			c.accessHook(a, false)
		}
		return 0, false
	}
	c.ctr.Hits++
	c.policy.touch(set, way)
	if c.accessHook != nil {
		c.accessHook(a, true)
	}
	return c.line(set, way).State, true
}

// SetAccessHook installs fn to observe every demand access, with the
// same accounting as the accesses/hits/misses counters: Lookup fires
// it, quiet paths (Touch, Probe) do not. The hook observes only — it
// must not mutate the cache. A nil fn removes the hook; a removed hook
// costs one predictable branch per lookup. The observability layer in
// internal/obs is the intended client.
func (c *Cache) SetAccessHook(fn func(a memsys.Addr, hit bool)) {
	c.accessHook = fn
}

// Touch behaves like Lookup for replacement state (a hit refreshes
// recency) but records no statistics. Controllers use it to re-examine
// a request that was already counted at its first lookup and then
// stalled — a retry is not a new demand access.
func (c *Cache) Touch(a memsys.Addr) (state uint8, hit bool) {
	set, way, ok := c.find(a)
	if !ok {
		return 0, false
	}
	c.policy.touch(set, way)
	return c.line(set, way).State, true
}

// Probe inspects the array without touching statistics or replacement
// state. Coherence probes from other controllers use this so they do not
// perturb demand-access metrics.
func (c *Cache) Probe(a memsys.Addr) (state uint8, dirty, ok bool) {
	_, way, found := c.find(a)
	if !found {
		return 0, false, false
	}
	set := c.setOf(a)
	l := c.line(set, way)
	return l.State, l.Dirty, true
}

// SetState changes the protocol state of a resident line. Setting state
// 0 is an invalidation and clears the entry. It panics if the line is
// absent: controllers must only downgrade lines they hold.
func (c *Cache) SetState(a memsys.Addr, state uint8) {
	set, way, ok := c.find(a)
	if !ok {
		panic(fmt.Sprintf("cache %s: SetState on absent line %#x", c.cfg.Name, uint64(a)))
	}
	l := c.line(set, way)
	if state == 0 {
		*l = Line{}
		c.tags[set*c.cfg.Ways+way] = tagInvalid
		return
	}
	l.State = state
}

// SetDirty marks a resident line clean or dirty; it panics if absent.
func (c *Cache) SetDirty(a memsys.Addr, dirty bool) {
	set, way, ok := c.find(a)
	if !ok {
		panic(fmt.Sprintf("cache %s: SetDirty on absent line %#x", c.cfg.Name, uint64(a)))
	}
	c.line(set, way).Dirty = dirty
}

// Contains reports whether the line holding a is resident.
func (c *Cache) Contains(a memsys.Addr) bool {
	_, _, ok := c.find(a)
	return ok
}

// PeekVictim returns what Insert of the line holding a would evict,
// without changing any state. ok is false when the insert would not
// evict (line resident or an invalid way exists).
func (c *Cache) PeekVictim(a memsys.Addr) (Victim, bool) {
	set, _, found := c.find(a)
	if found {
		return Victim{}, false
	}
	for w := 0; w < c.cfg.Ways; w++ {
		if !c.line(set, w).Valid() {
			return Victim{}, false
		}
	}
	way := c.policy.victim(set)
	l := c.line(set, way)
	return Victim{
		Addr:  memsys.Addr(uint64(c.tags[set*c.cfg.Ways+way]) << memsys.LineShift),
		State: l.State,
		Dirty: l.Dirty,
	}, true
}

// SetFull reports whether installing the line holding a would require
// evicting a valid line (a is absent and its set has no invalid way).
func (c *Cache) SetFull(a memsys.Addr) bool {
	set, _, ok := c.find(a)
	if ok {
		return false
	}
	for w := 0; w < c.cfg.Ways; w++ {
		if !c.line(set, w).Valid() {
			return false
		}
	}
	return true
}

// Insert allocates the line holding a with the given state and dirtiness
// and returns any displaced victim. Inserting a line that is already
// resident updates its state in place and reports no victim. A dirty
// victim increments the writeback counter; every victim increments the
// eviction counter.
func (c *Cache) Insert(a memsys.Addr, state uint8, dirty bool) (v Victim, evicted bool) {
	if state == 0 {
		panic(fmt.Sprintf("cache %s: Insert with invalid state", c.cfg.Name))
	}
	tag, fits := tagOf(a)
	if !fits {
		panic(fmt.Sprintf("cache %s: Insert of line %#x beyond the 32-bit tag range", c.cfg.Name, uint64(a)))
	}
	set, way, ok := c.find(a)
	if ok {
		l := c.line(set, way)
		l.State = state
		l.Dirty = l.Dirty || dirty
		c.policy.touch(set, way)
		return Victim{}, false
	}
	// Prefer an invalid way.
	way = -1
	for w := 0; w < c.cfg.Ways; w++ {
		if !c.line(set, w).Valid() {
			way = w
			break
		}
	}
	if way == -1 {
		way = c.policy.victim(set)
		old := c.line(set, way)
		v = Victim{
			Addr:  memsys.Addr(uint64(c.tags[set*c.cfg.Ways+way]) << memsys.LineShift),
			State: old.State,
			Dirty: old.Dirty,
		}
		evicted = true
		c.ctr.Evictions++
		if old.Dirty {
			c.ctr.Writebacks++
		}
	}
	*c.line(set, way) = Line{State: state, Dirty: dirty}
	c.tags[set*c.cfg.Ways+way] = tag
	c.policy.insert(set, way)
	return v, evicted
}

// Invalidate removes the line holding a if resident, reporting whether
// it was present and whether it was dirty (the caller owns any required
// writeback).
func (c *Cache) Invalidate(a memsys.Addr) (wasDirty, wasPresent bool) {
	set, way, ok := c.find(a)
	if !ok {
		return false, false
	}
	l := c.line(set, way)
	wasDirty = l.Dirty
	*l = Line{}
	c.tags[set*c.cfg.Ways+way] = tagInvalid
	return wasDirty, true
}

// InvalidateAll clears the whole array (the GPU L1 flash invalidate at
// kernel launch, paper §III-A) and returns how many valid lines were
// dropped.
func (c *Cache) InvalidateAll() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].Valid() {
			n++
			c.lines[i] = Line{}
		}
		c.tags[i] = tagInvalid
	}
	return n
}

// ValidLines returns how many lines are currently resident.
func (c *Cache) ValidLines() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].Valid() {
			n++
		}
	}
	return n
}

// Release gives the array's lines, tags and replacement state to the
// free lists for the next cache of the same geometry. Only the owner
// may call it, after its last read of the array; afterwards only the
// counters stay readable.
func (c *Cache) Release() {
	lineFree.Put(c.lines)
	wordFree.Put(c.tags)
	c.policy.release()
	c.lines, c.tags, c.policy = nil, nil, nil
}

// The cache arrays' free lists, one per element type. Tags and LRU
// stamps share one list: both are numSets*ways 32-bit words.
var (
	lineFree = freelist.New[Line](freelist.MachineBytes)
	wordFree = freelist.New[uint32](freelist.MachineBytes)
	bitFree  = freelist.New[bool](freelist.MachineBytes)
	rrpvFree = freelist.New[uint8](freelist.MachineBytes)
)

package cache

import (
	"slices"

	"dstore/internal/sim"
)

// replacementPolicy tracks access recency per set and nominates victims.
// Implementations are not safe for concurrent use.
type replacementPolicy interface {
	// touch records a demand hit on (set, way).
	touch(set, way int)
	// insert records a fill into (set, way).
	insert(set, way int)
	// victim nominates the way to evict from a full set.
	victim(set int) int
	// release gives the policy's arrays to their free list.
	release()
}

// lru is true least-recently-used via a per-line logical timestamp:
// each touch or fill stamps the way with the next tick of a per-cache
// clock, and the victim is the way with the smallest stamp in its set.
type lru struct {
	ways  int
	clock uint32
	last  []uint32 // numSets * ways
}

func newLRU(numSets, ways int) *lru {
	return &lru{ways: ways, last: wordFree.Get(numSets * ways)}
}

func (p *lru) release() { wordFree.Put(p.last) }

func (p *lru) stamp(set, way int) {
	if p.clock == ^uint32(0) {
		p.renormalise()
	}
	p.clock++
	p.last[set*p.ways+way] = p.clock
}

// renormalise replaces every stamp with its rank among the distinct
// stamps of its set and restarts the clock above the largest rank.
// victim compares stamps only within a set, and ranks keep that order
// and its ties, so the clock wraps without changing any victim. It
// runs once per 2^32 stamps.
func (p *lru) renormalise() {
	distinct := make([]uint32, 0, p.ways)
	top := uint32(0)
	for base := 0; base < len(p.last); base += p.ways {
		set := p.last[base : base+p.ways]
		distinct = append(distinct[:0], set...)
		slices.Sort(distinct)
		distinct = slices.Compact(distinct)
		for w, v := range set {
			r, _ := slices.BinarySearch(distinct, v)
			set[w] = uint32(r)
		}
		top = max(top, uint32(len(distinct)-1))
	}
	p.clock = top
}

func (p *lru) touch(set, way int)  { p.stamp(set, way) }
func (p *lru) insert(set, way int) { p.stamp(set, way) }

func (p *lru) victim(set int) int {
	base := set * p.ways
	best := 0
	for w := 1; w < p.ways; w++ {
		if p.last[base+w] < p.last[base+best] {
			best = w
		}
	}
	return best
}

// treePLRU is the classic binary-tree pseudo-LRU used by most real L2/L3
// arrays. Associativity is rounded up to a power of two internally;
// victim selection clamps to the real way count.
type treePLRU struct {
	ways     int
	treeWays int // ways rounded up to a power of two
	bits     []bool
}

func newTreePLRU(numSets, ways int) *treePLRU {
	tw := 1
	for tw < ways {
		tw *= 2
	}
	return &treePLRU{ways: ways, treeWays: tw, bits: bitFree.Get(numSets * (tw - 1))}
}

func (p *treePLRU) release() { bitFree.Put(p.bits) }

// setBits returns the slice of tree bits for one set.
func (p *treePLRU) setBits(set int) []bool {
	n := p.treeWays - 1
	return p.bits[set*n : (set+1)*n]
}

// promote walks from the root to the leaf for way, flipping each node to
// point away from the accessed path.
func (p *treePLRU) promote(set, way int) {
	b := p.setBits(set)
	node := 0
	span := p.treeWays
	lo := 0
	for span > 1 {
		span /= 2
		goRight := way >= lo+span
		b[node] = !goRight // bit points toward the PLRU side
		if goRight {
			lo += span
			node = 2*node + 2
		} else {
			node = 2*node + 1
		}
	}
}

func (p *treePLRU) touch(set, way int)  { p.promote(set, way) }
func (p *treePLRU) insert(set, way int) { p.promote(set, way) }

func (p *treePLRU) victim(set int) int {
	b := p.setBits(set)
	node := 0
	span := p.treeWays
	lo := 0
	for span > 1 {
		span /= 2
		if b[node] {
			lo += span
			node = 2*node + 2
		} else {
			node = 2*node + 1
		}
	}
	if lo >= p.ways {
		lo = p.ways - 1
	}
	return lo
}

// srrip is Static Re-Reference Interval Prediction with 2-bit RRPVs
// (Jaleel et al., ISCA 2010): insertions predict a long re-reference
// interval (RRPV 2), hits promote to 0, and the victim is the first way
// at RRPV 3 (aging everyone when none is). Scan-resistant: a streaming
// burst cannot flush the reused working set the way LRU lets it.
type srrip struct {
	ways int
	rrpv []uint8 // numSets * ways
}

// srripMax is the distant re-reference value (2-bit counters).
const srripMax = 3

func newSRRIP(numSets, ways int) *srrip {
	p := &srrip{ways: ways, rrpv: rrpvFree.Get(numSets * ways)}
	for i := range p.rrpv {
		p.rrpv[i] = srripMax
	}
	return p
}

func (p *srrip) release() { rrpvFree.Put(p.rrpv) }

func (p *srrip) touch(set, way int) { p.rrpv[set*p.ways+way] = 0 }

func (p *srrip) insert(set, way int) { p.rrpv[set*p.ways+way] = srripMax - 1 }

func (p *srrip) victim(set int) int {
	base := set * p.ways
	for {
		for w := 0; w < p.ways; w++ {
			if p.rrpv[base+w] == srripMax {
				return w
			}
		}
		for w := 0; w < p.ways; w++ {
			p.rrpv[base+w]++
		}
	}
}

// randomPolicy evicts a pseudo-random way. Deterministic via sim.Rand.
type randomPolicy struct {
	ways int
	rng  *sim.Rand
}

func newRandomPolicy(ways int, seed uint64) *randomPolicy {
	return &randomPolicy{ways: ways, rng: sim.NewRand(seed ^ 0xcafef00d)}
}

func (p *randomPolicy) touch(int, int)  {}
func (p *randomPolicy) insert(int, int) {}
func (p *randomPolicy) victim(int) int  { return p.rng.Intn(p.ways) }
func (p *randomPolicy) release()        {}

package coherence

import (
	"dstore/internal/memsys"
	"dstore/internal/stats"
)

// RegionDirectory is an HSC-style probe filter (Power et al., MICRO
// 2013 — the paper's reference [2]): the memory controller tracks
// coarse-grained regions and skips the broadcast probes for requests to
// regions private to the requester. GPU workloads touch mostly
// GPU-private data, so the filter removes most of Hammer's probe
// traffic — the strongest conventional baseline the paper compares its
// simplicity argument against.
//
// States per region: unowned (never touched), private to one agent, or
// shared (two or more agents have touched it — broadcast from then on).
// Uncacheable remote loads always probe: the pushed copy in the GPU L2
// is the authority regardless of region state.
type RegionDirectory struct {
	shift uint
	// groupOf maps agent names to sharing domains: the four GPU L2
	// slices are one domain (lines interleave across them, so a region
	// is touched by all four). nil = identity.
	groupOf func(string) string
	// owner maps region number → owning agent; sharedRegion marks
	// regions demoted to broadcast.
	owner  map[uint64]string
	shared map[uint64]bool

	ctr RegionCounters
}

// NewRegionDirectory builds a directory tracking regions of
// 2^shift bytes (12 = 4KB pages, HSC's granularity). groupOf maps
// agent names into sharing domains (e.g. all GPU L2 slices → "gpu");
// nil means every agent is its own domain.
func NewRegionDirectory(shift uint, groupOf func(string) string) *RegionDirectory {
	if groupOf == nil {
		groupOf = func(n string) string { return n }
	}
	return &RegionDirectory{
		shift:   shift,
		groupOf: groupOf,
		owner:   make(map[uint64]string),
		shared:  make(map[uint64]bool),
	}
}

// RegionCounters are the probe filter's claim, filter and downgrade counts.
type RegionCounters struct {
	RegionsClaimed, ProbesFiltered, RegionDowngrades uint64
}

// Rows lists the counters by name, in dump and snapshot order.
func (c *RegionCounters) Rows() stats.Rows {
	return stats.Rows{
		{Name: "regions_claimed", N: &c.RegionsClaimed},
		{Name: "probes_filtered", N: &c.ProbesFiltered},
		{Name: "region_downgrades", N: &c.RegionDowngrades},
	}
}

// Get returns the named counter; an undeclared name panics.
func (c *RegionCounters) Get(name string) uint64 { return c.Rows().Get(name) }

// Counters exposes the directory's counters.
func (r *RegionDirectory) Counters() *RegionCounters { return &r.ctr }

func (r *RegionDirectory) region(a memsys.Addr) uint64 { return uint64(a) >> r.shift }

// Filter decides whether the probes for a request can be skipped.
// Ordinary requests to a region owned by the requester (or never
// touched) skip; anything else broadcasts, demoting the region to
// shared. RemoteLoad never filters: the GPU L2 may hold a pushed line
// newer than memory.
func (r *RegionDirectory) Filter(addr memsys.Addr, requester string, ty ReqType) (skipProbes bool) {
	if ty == RemoteLoad {
		return false
	}
	requester = r.groupOf(requester)
	reg := r.region(addr)
	if r.shared[reg] {
		return false
	}
	owner, owned := r.owner[reg]
	switch {
	case !owned:
		r.owner[reg] = requester
		r.ctr.RegionsClaimed++
		r.ctr.ProbesFiltered++
		return true
	case owner == requester:
		r.ctr.ProbesFiltered++
		return true
	default:
		// Second agent touches the region: broadcast this and every
		// later request.
		r.shared[reg] = true
		r.ctr.RegionDowngrades++
		return false
	}
}

// Owner returns the owning agent of the region containing a, if the
// region is private ("" and false when unowned or shared).
func (r *RegionDirectory) Owner(a memsys.Addr) (string, bool) {
	reg := r.region(a)
	if r.shared[reg] {
		return "", false
	}
	o, ok := r.owner[reg]
	return o, ok
}

// SharedRegions returns how many regions have been demoted to
// broadcast.
func (r *RegionDirectory) SharedRegions() int { return len(r.shared) }

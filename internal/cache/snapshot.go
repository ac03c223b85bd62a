package cache

import (
	"math"

	"dstore/internal/snap"
)

// Policy discriminants in the snapshot stream. These are part of the
// serialised format (DESIGN.md §11): renumbering them is a snapshot
// version bump.
const (
	snapPolicyLRU      = 1
	snapPolicyTreePLRU = 2
	snapPolicySRRIP    = 3
	snapPolicyRandom   = 4
)

// SnapshotTo serialises the array contents (valid lines, sparse), the
// replacement-policy state and the counters. Each valid line is
// written with its tag; invalid ways are not written, and RestoreFrom
// marks every way it does not read invalid.
func (c *Cache) SnapshotTo(w *snap.Writer) {
	w.Tag("cache")
	w.String(c.cfg.Name)
	w.U32(uint32(c.numSets))
	w.U32(uint32(c.cfg.Ways))

	valid := 0
	for i := range c.lines {
		if c.lines[i].Valid() {
			valid++
		}
	}
	w.U32(uint32(valid))
	for i := range c.lines {
		l := &c.lines[i]
		if !l.Valid() {
			continue
		}
		w.U32(uint32(i))
		w.U64(uint64(c.tags[i]))
		w.U8(l.State)
		w.Bool(l.Dirty)
	}

	switch p := c.policy.(type) {
	case *lru:
		w.U8(snapPolicyLRU)
		w.U64(uint64(p.clock))
		for _, v := range p.last {
			w.U64(uint64(v))
		}
	case *treePLRU:
		w.U8(snapPolicyTreePLRU)
		for _, b := range p.bits {
			w.Bool(b)
		}
	case *srrip:
		w.U8(snapPolicySRRIP)
		for _, v := range p.rrpv {
			w.U8(v)
		}
	case *randomPolicy:
		w.U8(snapPolicyRandom)
		w.U64(p.rng.State())
	}
	c.ctr.Rows().SnapshotTo(w)
}

// RestoreFrom overwrites the array from a snapshot. Geometry and
// policy kind must match the configured cache; a mismatch fails the
// reader and leaves the cache partially overwritten — callers discard
// the whole system on restore failure.
func (c *Cache) RestoreFrom(r *snap.Reader) {
	r.Tag("cache")
	name := r.String()
	sets := r.U32()
	ways := r.U32()
	if r.Err() != nil {
		return
	}
	if name != c.cfg.Name || int(sets) != c.numSets || int(ways) != c.cfg.Ways {
		r.Failf("cache %s: snapshot geometry %s/%dx%d does not match %dx%d",
			c.cfg.Name, name, sets, ways, c.numSets, c.cfg.Ways)
		return
	}
	for i := range c.lines {
		c.lines[i] = Line{}
		c.tags[i] = tagInvalid
	}
	valid := r.U32()
	for n := uint32(0); n < valid && r.Err() == nil; n++ {
		i := r.U32()
		tag := r.U64()
		state := r.U8()
		dirty := r.Bool()
		if r.Err() != nil {
			return
		}
		if int(i) >= len(c.lines) || state == 0 || tag >= uint64(tagInvalid) {
			r.Failf("cache %s: invalid snapshot line entry (idx %d, tag %#x, state %d)", c.cfg.Name, i, tag, state)
			return
		}
		c.lines[i] = Line{State: state, Dirty: dirty}
		c.tags[i] = uint32(tag)
	}

	kind := r.U8()
	switch p := c.policy.(type) {
	case *lru:
		if kind != snapPolicyLRU {
			r.Failf("cache %s: snapshot policy %d, configured lru", c.cfg.Name, kind)
			return
		}
		p.clock = c.readStamp(r)
		for i := range p.last {
			p.last[i] = c.readStamp(r)
		}
	case *treePLRU:
		if kind != snapPolicyTreePLRU {
			r.Failf("cache %s: snapshot policy %d, configured plru", c.cfg.Name, kind)
			return
		}
		for i := range p.bits {
			p.bits[i] = r.Bool()
		}
	case *srrip:
		if kind != snapPolicySRRIP {
			r.Failf("cache %s: snapshot policy %d, configured srrip", c.cfg.Name, kind)
			return
		}
		for i := range p.rrpv {
			p.rrpv[i] = r.U8()
		}
	case *randomPolicy:
		if kind != snapPolicyRandom {
			r.Failf("cache %s: snapshot policy %d, configured random", c.cfg.Name, kind)
			return
		}
		p.rng.SetState(r.U64())
	}
	c.ctr.Rows().RestoreFrom(r)
}

// readStamp reads an LRU clock or stamp, which snapshots carry as a
// U64, and fails the reader on a value beyond the 32-bit clock.
func (c *Cache) readStamp(r *snap.Reader) uint32 {
	v := r.U64()
	if v > math.MaxUint32 {
		r.Failf("cache %s: snapshot LRU stamp %d beyond the 32-bit clock", c.cfg.Name, v)
		return 0
	}
	return uint32(v)
}

package cache

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"

	"dstore/internal/memsys"
	"dstore/internal/sim"
	"dstore/internal/snap"
)

// stateValid is an arbitrary non-zero protocol state for tests.
const stateValid uint8 = 1

func lineAddr(i int) memsys.Addr { return memsys.Addr(i) * memsys.LineSize }

func small(t *testing.T, policy PolicyKind) *Cache {
	t.Helper()
	// 4 sets x 2 ways x 128B = 1KB
	return New(Config{Name: "t", SizeBytes: 1024, Ways: 2, Policy: policy})
}

func TestNewGeometry(t *testing.T) {
	c := small(t, PolicyLRU)
	if c.NumSets() != 4 || c.Ways() != 2 || c.CapacityLines() != 8 {
		t.Fatalf("geometry sets=%d ways=%d cap=%d", c.NumSets(), c.Ways(), c.CapacityLines())
	}
}

func TestNewPanicsOnBadGeometry(t *testing.T) {
	cases := []Config{
		{Name: "zero-ways", SizeBytes: 1024, Ways: 0},
		{Name: "bad-size", SizeBytes: 1000, Ways: 2},
		{Name: "non-pow2-sets", SizeBytes: 3 * 2 * memsys.LineSize, Ways: 2},
		{Name: "bad-policy", SizeBytes: 1024, Ways: 2, Policy: "fifo"},
	}
	for _, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %s did not panic", cfg.Name)
				}
			}()
			New(cfg)
		}()
	}
}

func TestMissOnEmptyCache(t *testing.T) {
	c := small(t, PolicyLRU)
	if _, hit := c.Lookup(0x1000); hit {
		t.Error("hit in empty cache")
	}
	if c.Counters().Get("misses") != 1 || c.Counters().Get("accesses") != 1 {
		t.Error("miss counters wrong")
	}
}

func TestInsertThenHit(t *testing.T) {
	c := small(t, PolicyLRU)
	c.Insert(0x1000, stateValid, false)
	st, hit := c.Lookup(0x1000)
	if !hit || st != stateValid {
		t.Fatalf("lookup after insert: hit=%v state=%d", hit, st)
	}
	// Whole line hits, next line misses.
	if _, hit := c.Lookup(0x1000 + memsys.LineSize - 1); !hit {
		t.Error("same-line offset missed")
	}
	if _, hit := c.Lookup(0x1000 + memsys.LineSize); hit {
		t.Error("adjacent line hit")
	}
}

func TestInsertExistingUpdatesInPlace(t *testing.T) {
	c := small(t, PolicyLRU)
	c.Insert(0x1000, 1, false)
	v, ev := c.Insert(0x1000, 2, true)
	if ev {
		t.Errorf("re-insert evicted %+v", v)
	}
	st, dirty, ok := c.Probe(0x1000)
	if !ok || st != 2 || !dirty {
		t.Errorf("after re-insert: state=%d dirty=%v ok=%v", st, dirty, ok)
	}
	if c.ValidLines() != 1 {
		t.Errorf("ValidLines=%d, want 1", c.ValidLines())
	}
}

func TestInsertDirtyStaysDirtyOnCleanReinsert(t *testing.T) {
	c := small(t, PolicyLRU)
	c.Insert(0x1000, 1, true)
	c.Insert(0x1000, 1, false)
	if _, dirty, _ := c.Probe(0x1000); !dirty {
		t.Error("clean re-insert lost dirtiness")
	}
}

func TestEvictionVictimIdentity(t *testing.T) {
	c := small(t, PolicyLRU) // 4 sets, 2 ways; same set = line numbers ≡ mod 4
	a0, a1, a2 := lineAddr(0), lineAddr(4), lineAddr(8)
	c.Insert(a0, stateValid, true)
	c.Insert(a1, stateValid, false)
	v, ev := c.Insert(a2, stateValid, false)
	if !ev {
		t.Fatal("third insert into 2-way set did not evict")
	}
	if v.Addr != a0 || !v.Dirty || v.State != stateValid {
		t.Errorf("victim %+v, want LRU line %#x dirty", v, uint64(a0))
	}
	if c.Contains(a0) {
		t.Error("evicted line still resident")
	}
	if c.Counters().Get("evictions") != 1 || c.Counters().Get("writebacks") != 1 {
		t.Error("eviction counters wrong")
	}
}

func TestLRUTouchProtectsLine(t *testing.T) {
	c := small(t, PolicyLRU)
	a0, a1, a2 := lineAddr(0), lineAddr(4), lineAddr(8)
	c.Insert(a0, stateValid, false)
	c.Insert(a1, stateValid, false)
	c.Lookup(a0) // a0 becomes MRU; a1 is now LRU
	v, ev := c.Insert(a2, stateValid, false)
	if !ev || v.Addr != a1 {
		t.Errorf("victim %+v, want %#x after touching a0", v, uint64(a1))
	}
}

func TestProbeDoesNotPerturb(t *testing.T) {
	c := small(t, PolicyLRU)
	a0, a1, a2 := lineAddr(0), lineAddr(4), lineAddr(8)
	c.Insert(a0, stateValid, false)
	c.Insert(a1, stateValid, false)
	before := c.Counters().Get("accesses")
	c.Probe(a0) // must NOT refresh a0's recency
	if c.Counters().Get("accesses") != before {
		t.Error("Probe counted as an access")
	}
	v, _ := c.Insert(a2, stateValid, false)
	if v.Addr != a0 {
		t.Errorf("probe refreshed recency: victim %#x, want %#x", uint64(v.Addr), uint64(a0))
	}
}

func TestSetStateAndInvalidateViaZero(t *testing.T) {
	c := small(t, PolicyLRU)
	c.Insert(0x1000, 1, false)
	c.SetState(0x1000, 3)
	if st, _, _ := c.Probe(0x1000); st != 3 {
		t.Errorf("state=%d, want 3", st)
	}
	c.SetState(0x1000, 0)
	if c.Contains(0x1000) {
		t.Error("SetState(0) did not invalidate")
	}
}

func TestSetStatePanicsOnAbsent(t *testing.T) {
	c := small(t, PolicyLRU)
	defer func() {
		if recover() == nil {
			t.Error("SetState on absent line did not panic")
		}
	}()
	c.SetState(0x1000, 1)
}

func TestSetDirty(t *testing.T) {
	c := small(t, PolicyLRU)
	c.Insert(0x1000, 1, false)
	c.SetDirty(0x1000, true)
	if _, dirty, _ := c.Probe(0x1000); !dirty {
		t.Error("SetDirty(true) had no effect")
	}
	c.SetDirty(0x1000, false)
	if _, dirty, _ := c.Probe(0x1000); dirty {
		t.Error("SetDirty(false) had no effect")
	}
}

func TestInvalidate(t *testing.T) {
	c := small(t, PolicyLRU)
	c.Insert(0x1000, 1, true)
	wasDirty, present := c.Invalidate(0x1000)
	if !present || !wasDirty {
		t.Errorf("Invalidate: present=%v dirty=%v", present, wasDirty)
	}
	if _, present := c.Invalidate(0x1000); present {
		t.Error("double invalidate reported present")
	}
}

func TestInvalidateAll(t *testing.T) {
	c := small(t, PolicyLRU)
	for i := 0; i < 6; i++ {
		c.Insert(lineAddr(i), stateValid, false)
	}
	if n := c.InvalidateAll(); n != 6 {
		t.Errorf("InvalidateAll dropped %d lines, want 6", n)
	}
	if c.ValidLines() != 0 {
		t.Error("lines survive InvalidateAll")
	}
}

func TestInsertInvalidStatePanics(t *testing.T) {
	c := small(t, PolicyLRU)
	defer func() {
		if recover() == nil {
			t.Error("Insert state 0 did not panic")
		}
	}()
	c.Insert(0x1000, 0, false)
}

func TestWorkingSetWithinCapacityNeverEvicts(t *testing.T) {
	for _, pol := range []PolicyKind{PolicyLRU, PolicyTreePLRU, PolicyRandom} {
		c := New(Config{Name: "cap", SizeBytes: 16 * 1024, Ways: 4, Policy: pol})
		n := c.CapacityLines()
		for i := 0; i < n; i++ {
			if _, ev := c.Insert(lineAddr(i), stateValid, false); ev {
				t.Errorf("%s: eviction while filling to capacity", pol)
			}
		}
		if c.ValidLines() != n {
			t.Errorf("%s: ValidLines=%d, want %d", pol, c.ValidLines(), n)
		}
		// Re-access everything: all hits.
		for i := 0; i < n; i++ {
			if _, hit := c.Lookup(lineAddr(i)); !hit {
				t.Errorf("%s: line %d missing at capacity", pol, i)
			}
		}
	}
}

func TestWorkingSetBeyondCapacityThrashesLRU(t *testing.T) {
	// Sequential sweep over capacity+sets lines with LRU: second sweep
	// must miss everything (classic LRU worst case).
	c := New(Config{Name: "thrash", SizeBytes: 1024, Ways: 2, Policy: PolicyLRU})
	n := c.CapacityLines() + c.NumSets()
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < n; i++ {
			if st, hit := c.Lookup(lineAddr(i)); !hit {
				_ = st
				c.Insert(lineAddr(i), stateValid, false)
			} else if pass == 1 {
				t.Fatalf("hit on line %d during over-capacity sweep", i)
			}
		}
	}
}

// Property: under any access sequence and any policy, the number of
// valid lines never exceeds capacity and per-set residency never exceeds
// associativity.
func TestPropertyResidencyBounds(t *testing.T) {
	for _, pol := range []PolicyKind{PolicyLRU, PolicyTreePLRU, PolicyRandom} {
		pol := pol
		f := func(lineNums []uint8) bool {
			c := New(Config{Name: "p", SizeBytes: 1024, Ways: 2, Policy: pol, Seed: 42})
			for _, ln := range lineNums {
				a := lineAddr(int(ln))
				if _, hit := c.Lookup(a); !hit {
					c.Insert(a, stateValid, ln%3 == 0)
				}
			}
			if c.ValidLines() > c.CapacityLines() {
				return false
			}
			// Count per-set residency by probing all possible lines.
			perSet := make(map[int]int)
			for ln := 0; ln < 256; ln++ {
				if c.Contains(lineAddr(ln)) {
					perSet[ln%c.NumSets()]++
				}
			}
			for _, n := range perSet {
				if n > c.Ways() {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Errorf("policy %s: %v", pol, err)
		}
	}
}

// Property: hits + misses == accesses for any access stream.
func TestPropertyHitMissAccounting(t *testing.T) {
	f := func(lineNums []uint8) bool {
		c := New(Config{Name: "p", SizeBytes: 2048, Ways: 4})
		for _, ln := range lineNums {
			a := lineAddr(int(ln))
			if _, hit := c.Lookup(a); !hit {
				c.Insert(a, stateValid, false)
			}
		}
		cs := c.Counters()
		return cs.Get("hits")+cs.Get("misses") == cs.Get("accesses")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: an LRU cache of capacity C holding a cyclic working set of
// size <= ways per set gets all hits after the first pass.
func TestPropertyLRUSmallWorkingSetAllHits(t *testing.T) {
	c := New(Config{Name: "ws", SizeBytes: 4096, Ways: 8, Policy: PolicyLRU})
	ws := c.Ways() // all in one set: worst case for conflict
	set0 := func(i int) memsys.Addr { return lineAddr(i * c.NumSets()) }
	for i := 0; i < ws; i++ {
		c.Insert(set0(i), stateValid, false)
	}
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < ws; i++ {
			if _, hit := c.Lookup(set0(i)); !hit {
				t.Fatalf("pass %d line %d missed with working set == ways", pass, i)
			}
		}
	}
}

func TestTreePLRUVictimValidWay(t *testing.T) {
	c := New(Config{Name: "plru", SizeBytes: 4096, Ways: 8, Policy: PolicyTreePLRU})
	// Fill one set, then hammer one way; victim must never be the MRU way.
	set0 := func(i int) memsys.Addr { return lineAddr(i * c.NumSets()) }
	for i := 0; i < 8; i++ {
		c.Insert(set0(i), stateValid, false)
	}
	c.Lookup(set0(3))
	v, ev := c.Insert(set0(8), stateValid, false)
	if !ev {
		t.Fatal("full set insert did not evict")
	}
	if v.Addr == set0(3) {
		t.Error("tree-PLRU evicted the most recently used way")
	}
}

func TestRandomPolicyDeterministicAcrossRuns(t *testing.T) {
	run := func() []memsys.Addr {
		c := New(Config{Name: "r", SizeBytes: 1024, Ways: 2, Policy: PolicyRandom, Seed: 7})
		var victims []memsys.Addr
		for i := 0; i < 64; i++ {
			if v, ev := c.Insert(lineAddr(i), stateValid, false); ev {
				victims = append(victims, v.Addr)
			}
		}
		return victims
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("random policy victim counts differ across identical runs")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("random policy not deterministic for fixed seed")
		}
	}
}

func TestNonPowerOfTwoWaysPLRU(t *testing.T) {
	// 3-way cache exercises the treeWays rounding path.
	c := New(Config{Name: "w3", SizeBytes: 3 * 2 * memsys.LineSize * 2, Ways: 3, Policy: PolicyTreePLRU})
	set0 := func(i int) memsys.Addr { return lineAddr(i * c.NumSets()) }
	for i := 0; i < 10; i++ {
		if _, hit := c.Lookup(set0(i)); !hit {
			c.Insert(set0(i), stateValid, false)
		}
	}
	if c.ValidLines() > c.CapacityLines() {
		t.Error("3-way PLRU overfilled")
	}
}

// refLRU is the LRU policy as it was before stamps narrowed to 32
// bits: a 64-bit clock that never wraps in a test's lifetime.
type refLRU struct {
	ways  int
	clock uint64
	last  []uint64
}

func (p *refLRU) stamp(set, way int) {
	p.clock++
	p.last[set*p.ways+way] = p.clock
}

func (p *refLRU) victim(set int) int {
	base := set * p.ways
	best := 0
	for w := 1; w < p.ways; w++ {
		if p.last[base+w] < p.last[base+best] {
			best = w
		}
	}
	return best
}

// TestLRUClockWrapKeepsVictims runs the 32-bit LRU through its clock
// wrap, starting it near 2^32 after a warm-up that leaves some ways
// never stamped (tied at 0), and requires every set's victim to match
// the 64-bit reference after every stamp.
func TestLRUClockWrapKeepsVictims(t *testing.T) {
	const sets, ways = 16, 8
	p := newLRU(sets, ways)
	defer p.release()
	ref := &refLRU{ways: ways, last: make([]uint64, sets*ways)}
	rng := sim.NewRand(5)
	step := func() {
		// Favour the low ways so the high ones stay unstamped in
		// some sets.
		set, way := rng.Intn(sets), rng.Intn(ways)
		if rng.Bool(0.5) {
			way /= 2
		}
		p.stamp(set, way)
		ref.stamp(set, way)
	}
	for i := 0; i < 100; i++ {
		step()
	}
	p.clock = ^uint32(0) - 300
	ref.clock = uint64(p.clock)
	wrapped := false
	for i := 0; i < 3000; i++ {
		step()
		if p.clock < 1000 {
			wrapped = true
		}
		for set := 0; set < sets; set++ {
			if got, want := p.victim(set), ref.victim(set); got != want {
				t.Fatalf("stamp %d: set %d victim way %d, 64-bit reference way %d", i, set, got, want)
			}
		}
	}
	if !wrapped {
		t.Fatal("the clock never wrapped")
	}
}

// TestTagRangeGuard checks the 32-bit tag bound: Insert panics on a
// line number that does not fit, and a lookup of such a line misses
// even when a held line has the same low 32 bits.
func TestTagRangeGuard(t *testing.T) {
	c := small(t, PolicyLRU)
	held := lineAddr(5)
	alias := held + memsys.Addr(uint64(1)<<32<<memsys.LineShift)
	c.Insert(held, stateValid, false)
	if _, hit := c.Lookup(alias); hit {
		t.Error("Lookup of a line beyond the tag range hit a held line")
	}
	if c.Contains(alias) {
		t.Error("Contains reports a line beyond the tag range")
	}
	for _, a := range []memsys.Addr{alias, memsys.Addr(uint64(tagInvalid) << memsys.LineShift)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Insert(%#x) beyond the tag range did not panic", uint64(a))
				}
			}()
			c.Insert(a, stateValid, false)
		}()
	}
	last := memsys.Addr((uint64(tagInvalid) - 1) << memsys.LineShift)
	c.Insert(last, stateValid, true)
	if st, hit := c.Lookup(last); !hit || st != stateValid {
		t.Errorf("the highest tag: Lookup = %d, %v; want %d, true", st, hit, stateValid)
	}
}

// TestRestoreRejectsWideValues patches a snapshot's tag and LRU clock
// to values beyond 32 bits, as only a corrupt or foreign snapshot can
// hold, and requires the restore to fail rather than truncate them.
func TestRestoreRejectsWideValues(t *testing.T) {
	const tag, clock = 0x123457, 0x7654321
	for _, field := range []uint64{tag, clock} {
		c := small(t, PolicyLRU)
		c.Insert(memsys.Addr(tag<<memsys.LineShift), stateValid, false)
		c.policy.(*lru).clock = clock
		var w snap.Writer
		c.SnapshotTo(&w)
		blob := w.Bytes()
		var old, wide [8]byte
		binary.LittleEndian.PutUint64(old[:], field)
		binary.LittleEndian.PutUint64(wide[:], field|1<<32)
		at := bytes.Index(blob, old[:])
		if at < 0 {
			t.Fatalf("value %#x not found in the snapshot", field)
		}
		copy(blob[at:], wide[:])
		r := snap.NewReader(blob)
		small(t, PolicyLRU).RestoreFrom(r)
		if r.Err() == nil {
			t.Errorf("restore accepted %#x widened past 32 bits", field)
		}
	}
}

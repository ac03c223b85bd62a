package cache

import (
	"testing"

	"dstore/internal/sim"
)

func TestFreeListClearsAndBounds(t *testing.T) {
	f := NewFreeList[uint64](4 * 8) // 4 words
	a := f.Get(3)
	for i := range a {
		a[i] = 7
	}
	f.Put(a)
	for i, v := range a {
		if v != 0 {
			t.Fatalf("held slice[%d] = %d after Put, want 0", i, v)
		}
	}
	if got := f.HeldBytes(); got != 3*8 {
		t.Fatalf("HeldBytes = %d after one 3-word Put, want 24", got)
	}
	f.Put(make([]uint64, 2)) // 3+2 words exceed the bound: dropped
	b := f.Get(3)
	if &b[0] != &a[0] {
		t.Fatal("Get did not reuse the released slice of its length")
	}
	for i, v := range b {
		if v != 0 {
			t.Fatalf("recycled slice[%d] = %d, want 0", i, v)
		}
	}
	if c := f.Get(2); len(c) != 2 || f.held != 0 {
		t.Fatalf("Get(2) after an over-bound Put: len %d, held %d; want a new slice and nothing held", len(c), f.held)
	}
}

// TestRecycledCacheMatchesFresh releases a cache whose every array was
// dirtied, builds another of the same geometry from the free lists and
// requires exactly a fresh cache's state: no valid line, every tag
// invalid, replacement state at its initial value.
func TestRecycledCacheMatchesFresh(t *testing.T) {
	for _, policy := range []PolicyKind{PolicyLRU, PolicyTreePLRU, PolicySRRIP, PolicyRandom} {
		t.Run(string(policy), func(t *testing.T) {
			// 64 sets x 4 ways, a geometry no other test releases.
			cfg := Config{Name: "r", SizeBytes: 64 * 4 * 128, Ways: 4, Policy: policy, Seed: 3}
			old := New(cfg)
			for i := 0; i < 4*old.CapacityLines(); i++ {
				a := lineAddr(i * 7)
				old.Lookup(a)
				old.Insert(a, stateValid, i%2 == 0)
			}
			if old.ValidLines() != old.CapacityLines() {
				t.Fatalf("dirtying filled %d of %d lines", old.ValidLines(), old.CapacityLines())
			}
			oldLines := &old.lines[0]
			old.Release()

			c := New(cfg)
			if &c.lines[0] != oldLines {
				t.Fatal("the new cache did not draw the released line array")
			}
			if n := c.ValidLines(); n != 0 {
				t.Errorf("%d valid lines, want 0", n)
			}
			for i, l := range c.lines {
				if l != (Line{}) || c.tags[i] != tagInvalid {
					t.Fatalf("way %d: line %+v tag %#x, want empty and invalid", i, l, c.tags[i])
				}
			}
			switch p := c.policy.(type) {
			case *lru:
				if p.clock != 0 {
					t.Errorf("LRU clock %d, want 0", p.clock)
				}
				for i, v := range p.last {
					if v != 0 {
						t.Fatalf("LRU stamp %d = %d, want 0", i, v)
					}
				}
			case *treePLRU:
				for i, b := range p.bits {
					if b {
						t.Fatalf("PLRU bit %d set, want clear", i)
					}
				}
			case *srrip:
				for i, v := range p.rrpv {
					if v != srripMax {
						t.Fatalf("SRRIP rrpv %d = %d, want %d", i, v, srripMax)
					}
				}
			case *randomPolicy:
				if got, want := p.rng.State(), sim.NewRand(cfg.Seed^0xcafef00d).State(); got != want {
					t.Errorf("random policy state %#x, want %#x", got, want)
				}
			}
			c.Release()
		})
	}
}

package cache

import (
	"testing"
	"testing/quick"

	"dstore/internal/memsys"
)

func TestMSHRAllocateLookupFree(t *testing.T) {
	m := NewMSHR(4)
	e, ok := m.Allocate(0x1005) // unaligned on purpose
	if !ok {
		t.Fatal("allocate failed on empty MSHR")
	}
	if e.Addr != memsys.LineAlign(0x1005) {
		t.Errorf("entry addr %#x not line-aligned", uint64(e.Addr))
	}
	got, ok := m.Lookup(0x1000 + 3)
	if !ok || got != e {
		t.Error("lookup by same-line address failed")
	}
	r := &memsys.Request{ID: 1}
	e.Waiters = append(e.Waiters, r)
	waiters := m.Free(0x1000)
	if len(waiters) != 1 || waiters[0] != r {
		t.Error("free did not return waiters")
	}
	if m.Len() != 0 {
		t.Error("entry survives free")
	}
}

func TestMSHRDoubleAllocateSameLineFails(t *testing.T) {
	m := NewMSHR(4)
	m.Allocate(0x1000)
	if _, ok := m.Allocate(0x1000 + 64); ok {
		t.Error("second allocate of the same line succeeded")
	}
}

func TestMSHRCapacityStalls(t *testing.T) {
	m := NewMSHR(2)
	m.Allocate(lineAddr(1))
	m.Allocate(lineAddr(2))
	if !m.Full() {
		t.Error("MSHR not full at capacity")
	}
	if _, ok := m.Allocate(lineAddr(3)); ok {
		t.Error("allocate succeeded beyond capacity")
	}
	m.Free(lineAddr(1))
	if m.Full() {
		t.Error("MSHR still full after free")
	}
	if _, ok := m.Allocate(lineAddr(3)); !ok {
		t.Error("allocate failed after freeing a slot")
	}
}

func TestMSHRFreeAbsentPanics(t *testing.T) {
	m := NewMSHR(2)
	defer func() {
		if recover() == nil {
			t.Error("free of absent entry did not panic")
		}
	}()
	m.Free(0x2000)
}

func TestMSHRZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewMSHR(0) did not panic")
		}
	}()
	NewMSHR(0)
}

func TestMSHRWantExclusiveMerging(t *testing.T) {
	m := NewMSHR(4)
	e, _ := m.Allocate(0x1000)
	e.Waiters = append(e.Waiters, &memsys.Request{Type: memsys.Load})
	if e.WantExclusive {
		t.Error("load set WantExclusive")
	}
	e.WantExclusive = true // merged store upgrades the fill
	got, _ := m.Lookup(0x1000)
	if !got.WantExclusive {
		t.Error("upgrade lost")
	}
}

// Property: Len never exceeds capacity and allocate-then-free always
// round-trips.
func TestPropertyMSHRBounds(t *testing.T) {
	f := func(ops []uint8, capRaw uint8) bool {
		capacity := int(capRaw%8) + 1
		m := NewMSHR(capacity)
		for _, op := range ops {
			a := lineAddr(int(op % 16))
			if _, ok := m.Lookup(a); ok {
				m.Free(a)
			} else {
				m.Allocate(a)
			}
			if m.Len() > capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

package freelist

import "testing"

func TestFreeListClearsAndBounds(t *testing.T) {
	f := New[uint64](4 * 8) // 4 words
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

package obs

import (
	"reflect"
	"testing"
)

// TestRingWrapAndDrop pins the shared ring's semantics once for both
// tracers: it appends until full, then overwrites the oldest entry,
// counts every record and every overwrite, and snapshots oldest first.
func TestRingWrapAndDrop(t *testing.T) {
	r := NewRing[int](4)
	if r.Snapshot() != nil {
		t.Fatal("empty ring returned a snapshot")
	}
	for _, tc := range []struct {
		adds int
		want []int
	}{
		{1, []int{0}},
		{3, []int{0, 1, 2}},
		{4, []int{0, 1, 2, 3}},
		{6, []int{2, 3, 4, 5}},
		{8, []int{4, 5, 6, 7}},
		{10, []int{6, 7, 8, 9}},
	} {
		r := NewRing[int](4)
		for i := 0; i < tc.adds; i++ {
			r.Add(i)
		}
		if got := r.Snapshot(); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("after %d adds: snapshot %v, want %v", tc.adds, got, tc.want)
		}
		n, kept := uint64(tc.adds), uint64(len(tc.want))
		if r.Recorded() != n || r.Dropped() != n-kept {
			t.Errorf("after %d adds: recorded/dropped = %d/%d, want %d/%d",
				tc.adds, r.Recorded(), r.Dropped(), n, n-kept)
		}
	}

	// A snapshot is a copy: writing to it leaves the ring alone.
	r.Add(1)
	r.Snapshot()[0] = 99
	if got := r.Snapshot(); got[0] != 1 {
		t.Errorf("snapshot aliases the ring: %v", got)
	}
}

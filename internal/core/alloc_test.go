//go:build !race

// The race detector changes allocation sizes, so these pins run only
// without it.

package core

import (
	"runtime"
	"testing"
)

// allocated returns the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// releasedCycleBytes bounds a NewSystem + Release cycle of the Table I
// machine once the free lists hold its arrays. A first build allocates
// about 450 KB, most of it cache arrays; the cycle allocates about
// 35 KB (MSHRs, TLBs, controllers). It took 95 KB while every engine
// built its own 57 KB timing wheel and node arena.
const releasedCycleBytes = 64 << 10

func TestNewSystemReleaseAllocBound(t *testing.T) {
	cfg := DefaultConfig(ModeDirectStore)
	NewSystem(cfg).Release() // warm-up: fills the free lists
	const cycles = 4
	got := allocated(func() {
		for i := 0; i < cycles; i++ {
			NewSystem(cfg).Release()
		}
	}) / cycles
	if got > releasedCycleBytes {
		t.Errorf("NewSystem + Release allocated %d bytes per cycle, want at most %d", got, releasedCycleBytes)
	} else {
		t.Logf("NewSystem + Release allocated %d bytes per cycle", got)
	}
}

// snapshotOverheadBytes bounds what Snapshot allocates beyond the blob
// it returns, once its scratch writer has grown.
const snapshotOverheadBytes = 4 << 10

func TestSnapshotAllocatesTheBlob(t *testing.T) {
	s := NewSystem(DefaultConfig(ModeDirectStore))
	defer s.Release()
	if _, err := s.Snapshot(); err != nil { // warm-up: grows the scratch writer
		t.Fatal(err)
	}
	var blob []byte
	got := allocated(func() {
		var err error
		if blob, err = s.Snapshot(); err != nil {
			t.Fatal(err)
		}
	})
	if want := uint64(len(blob) + snapshotOverheadBytes); got > want {
		t.Errorf("Snapshot allocated %d bytes for a %d-byte blob, want at most %d", got, len(blob), want)
	}
	if cap(blob) != len(blob) {
		t.Errorf("blob capacity %d, want exactly its length %d", cap(blob), len(blob))
	}
}

//go:build !race

// The race detector changes allocation sizes, so these pins run only
// without it.

package bench

import (
	"runtime"
	"testing"

	"dstore/internal/core"
)

// buildBytes returns the bytes one Build of code at in allocates on a
// fresh direct-store machine, not counting the machine itself.
func buildBytes(t *testing.T, code string, in Input) uint64 {
	t.Helper()
	sys := core.NewSystem(core.DefaultConfig(core.ModeDirectStore))
	defer sys.Release()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Build(sys, code, in)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	return after.TotalAlloc - before.TotalAlloc
}

// TestBuildAllocBound keeps job construction to what the run reads:
// kernels in loop form sharing one warp set, walks allocated once at
// their final size, and CPU phases as line streams rather than
// written-out op slices. GC big, the largest graph of Table II,
// allocated 18.8 MB when its walk was deduplicated from a full
// traversal and its produce phase written out as ops; it now allocates
// about 2.5 MB. All 44 (code, input) builds allocated 73.0 MB then and
// about 15.1 MB now.
func TestBuildAllocBound(t *testing.T) {
	const gcBound = 5 << 20
	if n := buildBytes(t, "GC", Big); n > gcBound {
		t.Errorf("Build(GC, big) allocated %d bytes, bound %d", n, gcBound)
	} else {
		t.Logf("Build(GC, big) allocated %d bytes", n)
	}

	const allBound = 30 << 20
	var total uint64
	for _, code := range Codes() {
		for _, in := range []Input{Small, Big} {
			total += buildBytes(t, code, in)
		}
	}
	if total > allBound {
		t.Errorf("all 44 builds allocated %d bytes, bound %d", total, allBound)
	} else {
		t.Logf("all 44 builds allocated %d bytes", total)
	}
}

//go:build !race

// The race detector changes allocation sizes, so these pins run only
// without it.

package gpu

import (
	"reflect"
	"runtime"
	"testing"

	"dstore/internal/sim"
)

// TestLaunchReusesWarpContexts: a launch no larger than the one before
// it allocates nothing, its warps run in the previous kernel's context
// arena, and the kernel runs exactly as it does in fresh contexts. A
// released GPU holds no arena.
func TestLaunchReusesWarpContexts(t *testing.T) {
	first := loopKernel()
	second := Kernel{Name: "second", Warps: first.Warps[3:]}

	fresh := newRig(t, 2, 4, 2)
	fresh.launch(t, first)
	fresh.g.ctxs = nil
	want := outcomeOf(fresh, fresh.launch(t, second))

	r := newRig(t, 2, 4, 2)
	r.launch(t, first)
	arena := &r.g.ctxs[0]
	done := false
	var at sim.Tick
	onDone := func() { done = true; at = r.e.Now() }
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r.g.Launch(second, onDone)
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Errorf("second launch made %d allocations, want 0", n)
	}
	if &r.g.ctxs[0] != arena || len(r.g.ctxs) != len(second.Warps) {
		t.Errorf("second launch did not run in the first kernel's arena")
	}
	r.e.Run()
	if !done {
		t.Fatal("second kernel did not complete")
	}
	if got := outcomeOf(r, at); !reflect.DeepEqual(got, want) {
		t.Errorf("reused contexts: %+v\nfresh contexts: %+v", got, want)
	}

	r.g.Release()
	if r.g.ctxs != nil {
		t.Errorf("released GPU still holds %d warp contexts", cap(r.g.ctxs))
	}
}

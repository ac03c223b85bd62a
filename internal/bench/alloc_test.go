//go:build !race

// The race detector changes allocation sizes, so these pins run only
// without it.

package bench

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
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

// freshRunBytes returns the bytes one run of code at in allocates on a
// fresh machine of the given mode that is never released, as each run
// of the Fig. 4 sweep is: machine, job, every phase and the coherence
// check.
func freshRunBytes(t *testing.T, code string, in Input, mode core.Mode) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sys := core.NewSystem(core.DefaultConfig(mode))
	w, err := Build(sys, code, in)
	if err == nil {
		_, err = w.RunPhaseRangeContext(context.Background(), sys, 0, w.Phases())
	}
	if err == nil {
		err = sys.CheckCoherence()
	}
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	return after.TotalAlloc - before.TotalAlloc
}

// TestFreshRunAllocBound keeps a fresh machine's footprint at what it
// holds: 32-bit cache tags and LRU stamps, 8-byte line-table entries
// written only for lines a controller holds, open transactions and
// buffered writebacks in small tables, packets allocated in slabs, an
// overflow heap in pages that growth never copies, and a coherence
// check that lists no lines. MT big under CCSM, the run with the most
// packets in flight (27,423) and a 29k-entry overflow heap, allocated
// 29.1 MB with none of these, 16.9 MB (16,857,104 bytes, run alone)
// with 16-byte line-table entries on every line a controller was asked
// about and a dense open-transaction table, and 15.6 MB (15,644,472
// bytes) now.
//
// The run is measured in a child process running only this test: in
// this process an earlier test may have released machines into the
// process-wide free lists, and the run would then measure a partly
// recycled machine (15.2 MB after TestBuildAllocBound).
func TestFreshRunAllocBound(t *testing.T) {
	if os.Getenv(freshRunChild) != "" {
		fmt.Printf("fresh run bytes: %d\n", freshRunBytes(t, "MT", Big, core.ModeCCSM))
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestFreshRunAllocBound$")
	cmd.Env = append(os.Environ(), freshRunChild+"=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("measuring child: %v\n%s", err, out)
	}
	var n uint64
	i := strings.Index(string(out), "fresh run bytes: ")
	if i < 0 {
		t.Fatalf("measuring child printed no measurement:\n%s", out)
	}
	if _, err := fmt.Sscanf(string(out[i:]), "fresh run bytes: %d", &n); err != nil {
		t.Fatalf("parsing the child's measurement: %v\n%s", err, out)
	}
	const bound = 16 << 20
	if n > bound {
		t.Errorf("a fresh MT big CCSM run allocated %d bytes, bound %d", n, bound)
	} else {
		t.Logf("a fresh MT big CCSM run allocated %d bytes", n)
	}
}

// freshRunChild is set in the environment of the child process that
// TestFreshRunAllocBound measures in.
const freshRunChild = "DSTORE_FRESH_RUN_CHILD"

// Mixed-mode (§III-H co-existence): "The programmer can set large
// variables to use this approach ... and the remaining small-sized
// data to use CCSM." The translator's size threshold re-homes only the
// big kernel arrays; small control structures stay on the ordinary
// heap and keep using the conventional protocol. This example shows
// the translation decision and then measures the hybrid system.
//
//	go run ./examples/mixed_mode
package main

import (
	"fmt"

	"dstore"
)

const program = `
#define N 100000

__global__ void rank(float *scores, int *topk, int n);

int main() {
    float *scores = (float *)malloc(N * sizeof(float)); // 400KB: re-home
    int *topk = (int *)malloc(16 * sizeof(int));        // 64B: stays CCSM
    rank<<<64, 256>>>(scores, topk, N);
    return 0;
}
`

func main() {
	tr, err := dstore.Translate(map[string]string{"rank.cu": program},
		dstore.TranslateOptions{MinBytes: 4096})
	if err != nil {
		panic(err)
	}
	fmt.Println("== translation decision (MinBytes=4096) ==")
	fmt.Print(tr.Report())

	// Build the hybrid system the translated program implies: the big
	// array in the reserved region (pushed), the small one on the heap
	// (conventional coherence).
	sys := dstore.NewSystem(dstore.DefaultConfig(dstore.DirectStore))
	scores, err := sys.Space.MmapFixed(dstore.Addr(tr.Allocs[0].Addr), tr.Allocs[0].Size, "scores")
	if err != nil {
		panic(err)
	}
	topk, err := sys.AllocPrivate(64, "topk")
	if err != nil {
		panic(err)
	}

	// CPU produces both.
	var ops []dstore.CPUOp
	for off := uint64(0); off < tr.Allocs[0].Size; off += 128 {
		ops = append(ops, dstore.CPUOp{Type: dstore.StoreOp, Addr: scores + dstore.Addr(off)})
	}
	ops = append(ops, dstore.CPUOp{Type: dstore.StoreOp, Addr: topk})
	sys.RunCPU(ops)

	fmt.Println("\n== hybrid run ==")
	fmt.Printf("scores: %d lines pushed over the dedicated network\n", sys.PushesReceived())
	fmt.Printf("topk:   %d store went through CCSM (cacheable)\n",
		sys.Core.Counters().Stores)

	// GPU reads both: scores hit the pushed copies; topk pulls once via
	// the conventional protocol.
	var warp dstore.Warp
	for off := uint64(0); off < tr.Allocs[0].Size; off += 128 {
		warp.Ops = append(warp.Ops, dstore.WarpOp{Kind: dstore.OpGlobalLoad,
			Addr: scores + dstore.Addr(off), Lines: 1})
	}
	warp.Ops = append(warp.Ops, dstore.WarpOp{Kind: dstore.OpGlobalLoad, Addr: topk, Lines: 1})
	sys.RunKernel(dstore.Kernel{Name: "rank", Warps: []dstore.Warp{warp}})

	fmt.Printf("kernel: GPU L2 %d accesses, %d misses (the CCSM-managed topk pull)\n",
		sys.GPUL2Accesses(), sys.GPUL2Misses())
	if err := sys.CheckCoherence(); err != nil {
		panic(err)
	}
	fmt.Println("coherence invariants hold across both regimes")
}

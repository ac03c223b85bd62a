// Producer-consumer walkthrough: traces where the data lives at each
// step of the paper's Fig. 1 flow — CPU store, GPU first touch, CPU
// readback — under both coherence regimes, printing protocol-level
// evidence (traffic split, pushes, probe counts).
//
//	go run ./examples/producer_consumer
package main

import (
	"fmt"

	"dstore"
)

const bytes = 32 * 1024

func main() {
	for _, mode := range []dstore.Mode{dstore.CCSM, dstore.DirectStore} {
		fmt.Printf("=== %s ===\n", mode)
		sys := dstore.NewSystem(dstore.DefaultConfig(mode))
		base, err := sys.AllocShared(bytes, "frame")
		if err != nil {
			panic(err)
		}
		out, err := sys.AllocShared(bytes, "result")
		if err != nil {
			panic(err)
		}

		// 1. CPU produces a frame.
		var produce []dstore.CPUOp
		for a := base; a < base+bytes; a += 128 {
			produce = append(produce, dstore.CPUOp{Type: dstore.StoreOp, Addr: a})
		}
		t := sys.RunCPU(produce)
		fmt.Printf("produce:  %6d ticks, %5d lines pushed, xbar %6dB, direct net %6dB\n",
			t, sys.PushesReceived(), sys.CoherenceTrafficBytes(), sys.DirectTrafficBytes())

		// 2. GPU reads the frame and writes a result.
		var warps []dstore.Warp
		const nWarps = 16
		lines := bytes / 128
		per := lines / nWarps
		for w := 0; w < nWarps; w++ {
			var ops []dstore.WarpOp
			for i := 0; i < per; i++ {
				off := dstore.Addr((w*per + i) * 128)
				ops = append(ops,
					dstore.WarpOp{Kind: dstore.OpGlobalLoad, Addr: base + off, Lines: 1},
					dstore.WarpOp{Kind: dstore.OpCompute, Gap: 20},
					dstore.WarpOp{Kind: dstore.OpGlobalStore, Addr: out + off, Lines: 1})
			}
			warps = append(warps, dstore.Warp{Ops: ops})
		}
		t = sys.RunKernel(dstore.Kernel{Name: "transform", Warps: warps})
		fmt.Printf("kernel:   %6d ticks, GPU L2 %d accesses / %d misses (%.1f%%)\n",
			t, sys.GPUL2Accesses(), sys.GPUL2Misses(), sys.GPUL2MissRate()*100)

		// 3. CPU reads the result back. In direct-store mode these are
		// uncacheable remote loads served by the GPU L2.
		var rb []dstore.CPUOp
		for a := out; a < out+bytes; a += 128 {
			rb = append(rb, dstore.CPUOp{Type: dstore.LoadOp, Addr: a})
		}
		t = sys.RunCPU(rb)
		fmt.Printf("readback: %6d ticks, CPU remote loads %d\n",
			t, sys.Core.Counters().RemoteLoads)
		mem := sys.Mem.Counters()
		fmt.Printf("memory controller: %d requests, %d probes, %d from peer caches, %d from DRAM\n\n",
			mem.Requests, mem.ProbesSent, mem.DataFromPeer, mem.DataFromDRAM)
	}
}

package bench

import (
	"slices"
	"testing"

	"dstore/internal/core"
	"dstore/internal/memsys"
	"dstore/internal/trace"
)

// BenchmarkBuild times job construction alone, the first layer every
// run passes through: GC big is the largest graph walk of Table II, MM
// big the largest tiled walk. Each iteration builds on a fresh
// direct-store machine, whose own construction is not timed.
func BenchmarkBuild(b *testing.B) {
	for _, code := range []string{"GC", "MM"} {
		b.Run(code+"-big", func(b *testing.B) {
			cfg := core.DefaultConfig(core.ModeDirectStore)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				sys := core.NewSystem(cfg)
				b.StartTimer()
				if _, err := Build(sys, code, Big); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				sys.Release()
				b.StartTimer()
			}
		})
	}
}

// TestGraphProduceLinesSizedOnce checks a graph workload's produce pass
// against the concatenation it replaced, append(SequentialLines(nodes),
// SequentialLines(edges)...), and requires one exactly sized slice. The
// regions are GC big's (32,768 nodes, 4 bytes each) and smaller ones
// with unaligned bases and sizes that end mid-line, and an empty edge
// region.
func TestGraphProduceLinesSizedOnce(t *testing.T) {
	for _, r := range []struct {
		nodeBase  memsys.Addr
		nodeBytes uint64
		edgeBase  memsys.Addr
		edgeBytes uint64
	}{
		{0x10000, 32768 * 4, 0x10000 + 32768*4, 196608 * 4},
		{0x1004, 4096*4 + 3, 0x9001, 999},
		{0x40, 64, 0x200, 0},
	} {
		want := append(trace.SequentialLines(r.nodeBase, r.nodeBytes), trace.SequentialLines(r.edgeBase, r.edgeBytes)...)
		got := graphProduceLines(r.nodeBase, r.nodeBytes, r.edgeBase, r.edgeBytes)
		if !slices.Equal(got, want) {
			t.Errorf("%+v: %d lines differ from the %d-line concatenation", r, len(got), len(want))
		}
		if len(got) != cap(got) {
			t.Errorf("%+v: %d lines in a slice of capacity %d", r, len(got), cap(got))
		}
	}
}

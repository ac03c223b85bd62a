package bench

import (
	"testing"

	"dstore/internal/core"
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

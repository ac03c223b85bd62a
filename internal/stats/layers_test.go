package stats_test

import (
	"reflect"
	"testing"

	"dstore/internal/cache"
	"dstore/internal/chaos"
	"dstore/internal/coherence"
	"dstore/internal/core"
	"dstore/internal/cpu"
	"dstore/internal/dram"
	"dstore/internal/gpu"
	"dstore/internal/interconnect"
	"dstore/internal/mmu"
	"dstore/internal/sim"
	"dstore/internal/stats"
)

// TestLayerRowsListEveryField checks every layer's counter struct: its
// Rows must list each uint64 field exactly once under a distinct name,
// so a counter added to a struct cannot be left out of the -v dump and
// the snapshot. Link and Crossbar share the network struct but do not
// count hops, so their rows leave that one field out.
func TestLayerRowsListEveryField(t *testing.T) {
	e := sim.NewEngine()
	for _, tc := range []struct {
		name    string
		ctr     interface{ Rows() stats.Rows }
		skipped int
	}{
		{"cache", &cache.Counters{}, 0},
		{"coherence ctrl", &coherence.CtrlCounters{}, 0},
		{"memory controller", &coherence.MemCounters{}, 0},
		{"region directory", &coherence.RegionCounters{}, 0},
		{"tlb", &mmu.TLBCounters{}, 0},
		{"dram", &dram.Counters{}, 0},
		{"cpu", &cpu.Counters{}, 0},
		{"gpu", &gpu.Counters{}, 0},
		{"link", interconnect.NewLink(e, "l", 1, 0).Counters(), 1},
		{"crossbar", interconnect.NewCrossbar(e, "x", 1, 0).Counters(), 1},
		{"ring", interconnect.NewRing(e, "r", []string{"a", "b"}, 1, 0).Counters(), 0},
		{"system", &core.Counters{}, 0},
		{"fault plan", &chaos.Counters{}, 0},
	} {
		v := reflect.ValueOf(tc.ctr).Elem()
		fields := 0
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.CanSet() && f.Kind() == reflect.Uint64 {
				fields++
				f.SetUint(uint64(fields))
			}
		}
		rows := tc.ctr.Rows()
		if len(rows) != fields-tc.skipped {
			t.Errorf("%s: %d rows for %d counter fields", tc.name, len(rows), fields-tc.skipped)
		}
		names, values := map[string]bool{}, map[uint64]bool{}
		for _, r := range rows {
			if names[r.Name] || values[*r.N] {
				t.Errorf("%s: row %q repeats a name or a field", tc.name, r.Name)
			}
			names[r.Name], values[*r.N] = true, true
		}
	}
}

package modelcheck

import (
	"runtime"
	"testing"

	"dstore/internal/coherence"
)

// expandSample returns the first n states reachable from cfg's initial
// state, in BFS order.
func expandSample(cfg Config, n int) []state {
	sample := []state{initial(cfg)}
	seen := map[state]bool{sample[0]: true}
	for i := 0; i < len(sample) && len(sample) < n; i++ {
		successors(cfg, &sample[i], false, nil, func(ns *state, _, _ string) {
			if !seen[*ns] && len(sample) < n {
				seen[*ns] = true
				sample = append(sample, *ns)
			}
		})
	}
	return sample
}

// TestExpandAllocsPinned pins the exploration hot path at zero heap
// allocations: successor expansion with labels off and a recorder
// installed, as every BFS worker runs it. The sample comes from the
// resilient direct config and the bypass heap config, so probe, data,
// PUTX (with NACK and duplicate variants) and DRAM-completion steps
// all fire.
func TestExpandAllocsPinned(t *testing.T) {
	resilient := Config{Agents: 3, Lines: 1, DirectLines: 1, MaxStores: 2,
		Resilient: true, MaxNacks: 1, MaxDups: 1}
	bypass := Config{Agents: 3, Lines: 1, MaxStores: 2, Bypass: true}

	kinds := map[string]int{}
	for _, cfg := range []Config{resilient, bypass} {
		sample := expandSample(cfg, 3000)
		for i := range sample {
			s := &sample[i]
			if anyDramPending(cfg, s) {
				kinds["dram"]++
			}
			for _, m := range s.msgs[:s.nmsgs] {
				switch m.kind {
				case kProbe:
					kinds["probe"]++
				case kData:
					kinds["data"]++
				case kPutx:
					if _, n := deliveryVariants(cfg, s, m); n == 3 {
						kinds["putx+nack+dup"]++
					}
				}
			}
		}

		var scratch state
		var steps, rows int
		rec := recorder(func(int, int, coherence.State, coherence.Event, coherence.State) { rows++ })
		emit := func(*state, string, string) { steps++ }
		allocs := testing.AllocsPerRun(3, func() {
			for i := range sample {
				successorsInto(cfg, &sample[i], &scratch, false, rec, emit)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs expanding %d states, want 0", cfg, allocs, len(sample))
		}
		if steps == 0 || rows == 0 {
			t.Errorf("%s: expansion emitted %d steps and recorded %d rows", cfg, steps, rows)
		}
	}
	for _, k := range []string{"dram", "probe", "data", "putx+nack+dup"} {
		if kinds[k] == 0 {
			t.Errorf("sample has no %s delivery to expand", k)
		}
	}
}

// TestCheckAllocBound pins what a clean exploration allocates: the
// 263,848-state two-line bypass product at two workers, whose visited
// set holds fingerprints only and whose frontier keeps about one level
// of blocks resident. It measured 21.4 MB; a 24-byte-slot table with
// blocks freed only at the level barrier took 43.4 MB. Skipped under
// -race, which changes allocation sizes.
func TestCheckAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes differ under -race")
	}
	const boundMB = 28
	cfg := Config{Agents: 3, Lines: 2, DirectLines: 1, MaxStores: 1, MaxEvicts: 1, MaxLoads: 2, Bypass: true}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := CheckOpts(cfg, Options{Workers: 2})
	runtime.ReadMemStats(&after)
	if err != nil || res.Violation != nil || res.States != 263848 {
		t.Fatalf("Check(%s): %v, violation %v, %d states", cfg, err, res.Violation, res.States)
	}
	if mb := float64(after.TotalAlloc-before.TotalAlloc) / 1e6; mb > boundMB {
		t.Errorf("exploring %d states allocated %.1f MB, want at most %d MB", res.States, mb, boundMB)
	}
}

// BenchmarkCheck times whole explorations at the default worker count:
// the 263,848-state two-line bypass product and the 779,549-state
// 2-GPU-slice product of the standard sweep.
func BenchmarkCheck(b *testing.B) {
	for _, cfg := range StandardSweep() {
		var name string
		switch {
		case cfg.Lines == 2 && cfg.Bypass:
			name = "bypass-product"
		case cfg.gpus() == 2:
			name = "gpu2-product"
		default:
			continue
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			states := 0
			for i := 0; i < b.N; i++ {
				res, err := CheckOpts(cfg, Options{})
				if err != nil || res.Violation != nil {
					b.Fatalf("Check(%s): %v %v", cfg, err, res.Violation)
				}
				states += res.States
			}
			b.ReportMetric(float64(states)/b.Elapsed().Seconds(), "states/s")
		})
	}
}

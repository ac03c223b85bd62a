package modelcheck

import (
	"runtime"
	"sync"
	"testing"

	"dstore/internal/coherence"
	"dstore/internal/freelist"
)

// expandSample returns the first n states reachable from cfg's initial
// state, in BFS order.
func expandSample(cfg Config, n int) []state {
	sample := []state{initial(cfg)}
	seen := map[state]bool{sample[0]: true}
	for i := 0; i < len(sample) && len(sample) < n; i++ {
		successors(&cfg, &sample[i], false, nil, func(ns *state, _, _ string) {
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
			if anyDramPending(&cfg, s) {
				kinds["dram"]++
			}
			for _, m := range s.msgs[:s.nmsgs] {
				switch m.kind {
				case kProbe:
					kinds["probe"]++
				case kData:
					kinds["data"]++
				case kPutx:
					if _, n := deliveryVariants(&cfg, s, m); n == 3 {
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
				successorsInto(&cfg, &sample[i], &scratch, false, rec, emit)
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

// bypassProduct is the standard sweep's two-line bypass product: 263,848
// states, 1,160,631 transitions, a widest level of seven blocks.
var bypassProduct = Config{Agents: 3, Lines: 2, DirectLines: 1, MaxStores: 1, MaxEvicts: 1, MaxLoads: 2, Bypass: true}

// emptyArena drops what the process-wide free lists hold, so the next
// run allocates as the first run of a process does.
func emptyArena() {
	blockFree = freelist.New[block](arenaBytes)
	fpFree = freelist.New[uint64](arenaBytes)
	fpTables = freelist.New[fpTable](arenaBytes)
}

// checkAllocMB explores cfg at the given worker count, requires a clean
// run of the given state count (any count when states is 0), and
// returns the megabytes the run allocated.
func checkAllocMB(t *testing.T, cfg Config, workers, states int) float64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := CheckOpts(cfg, Options{Workers: workers})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("Check(%s): %v", cfg, err)
	}
	if res.Violation != nil || states != 0 && res.States != states {
		t.Fatalf("Check(%s): violation %v, %d states", cfg, res.Violation, res.States)
	}
	return float64(after.TotalAlloc-before.TotalAlloc) / 1e6
}

// TestCheckAllocBound pins what a cold exploration allocates: the
// two-line bypass product at two workers, after the free lists are
// emptied, whose visited set holds fingerprints only and whose
// frontier keeps about one level of blocks resident. It measured
// 21.4 MB; a 24-byte-slot table with blocks freed only at the level
// barrier took 43.4 MB. Skipped under -race, which changes allocation
// sizes.
func TestCheckAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes differ under -race")
	}
	const boundMB = 28
	emptyArena()
	if mb := checkAllocMB(t, bypassProduct, 2, 263848); mb > boundMB {
		t.Errorf("a cold run of %s allocated %.1f MB, want at most %d MB", bypassProduct, mb, boundMB)
	}
}

// TestCheckReusesArena pins the process-wide free lists. After one
// cold run of the two-line bypass product, a second run of it and a
// smaller configuration run after it each allocate at most 1 MB: their
// blocks and shard arrays come from the lists. These runs use one
// worker, whose block demand is the same every time; at two, a run
// may hold one block (1.3 MB) more than the run before it. After the
// standard sweep, at two workers, each list holds something and no
// more than arenaBytes. -short stops before the sweep; skipped under
// -race, which changes allocation sizes.
func TestCheckReusesArena(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes differ under -race")
	}
	const boundMB = 1
	small := Config{Agents: 3, Lines: 1, DirectLines: 1, MaxStores: 2}
	emptyArena()
	cold := checkAllocMB(t, bypassProduct, 1, 263848)
	warm := checkAllocMB(t, bypassProduct, 1, 263848)
	smaller := checkAllocMB(t, small, 1, 0)
	t.Logf("bypass product cold %.1f MB, again %.2f MB; then %s %.2f MB", cold, warm, small, smaller)
	if warm > boundMB {
		t.Errorf("a second run of %s allocated %.1f MB, want at most %d MB", bypassProduct, warm, boundMB)
	}
	if smaller > boundMB {
		t.Errorf("%s after the bypass product allocated %.1f MB, want at most %d MB", small, smaller, boundMB)
	}
	if testing.Short() {
		return
	}
	for _, cfg := range StandardSweep() {
		checkAllocMB(t, cfg, 2, 0)
	}
	for _, l := range []struct {
		name string
		held int
	}{{"blockFree", blockFree.HeldBytes()}, {"fpFree", fpFree.HeldBytes()}} {
		t.Logf("after the standard sweep %s holds %.1f MB", l.name, float64(l.held)/1e6)
		if l.held == 0 || l.held > arenaBytes {
			t.Errorf("after the standard sweep %s holds %d bytes, want 1 to %d", l.name, l.held, arenaBytes)
		}
	}
}

// fpStream returns a visited-set insert stream shaped like the two-line
// bypass product's: 1,160,631 inserts, one per transition, of which
// 263,848 are fresh, spread evenly through the stream; each other
// insert repeats a uniformly chosen earlier fingerprint. Fingerprints
// come from a fixed splitmix64 sequence.
func fpStream() (stream []uint64, fresh int) {
	const inserts = 1_160_631
	fresh = 263_848
	var x uint64
	next := func() uint64 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		return z ^ z>>31
	}
	stream = make([]uint64, inserts)
	seen := make([]uint64, 0, fresh)
	for i := range stream {
		if i*fresh/inserts >= len(seen) {
			seen = append(seen, next()|1) // 0 is the empty-slot sentinel
			stream[i] = seen[len(seen)-1]
		} else {
			stream[i] = seen[next()%uint64(len(seen))]
		}
	}
	return stream, fresh
}

// insertStream inserts stream into a new plain table, releases the
// table and reports the fresh insert count.
func insertStream(stream []uint64) int {
	tab := newFPTable(false)
	n := 0
	for _, fp := range stream {
		if tab.insert(fp, 0, 0) {
			n++
		}
	}
	tab.release()
	return n
}

// TestFPInsertAllocsPinned keeps the visited set's insert path at zero
// allocations once fpTables and fpFree hold a table and its arrays: a
// whole fpStream into a recycled table allocates nothing, publishing
// its arrays included. Skipped under -race.
func TestFPInsertAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes differ under -race")
	}
	stream, fresh := fpStream()
	n := 0
	allocs := testing.AllocsPerRun(1, func() { n = insertStream(stream) })
	if n != fresh {
		t.Fatalf("%d fresh inserts, want %d", n, fresh)
	}
	if allocs != 0 {
		t.Errorf("%v allocs per stream into a recycled table, want 0", allocs)
	}
}

// BenchmarkFPInsert times the visited set alone on fpStream, reporting
// wall ns per insert: serial inserts the stream from one goroutine;
// parallel splits it between two, one taking the even inserts and the
// other the odd ones, whose fingerprints overlap as two BFS workers'
// do. One stream warms fpTables and fpFree first, so allocs/op is 0
// serially (TestFPInsertAllocsPinned); parallel adds its goroutines.
func BenchmarkFPInsert(b *testing.B) {
	stream, fresh := fpStream()
	if n := insertStream(stream); n != fresh {
		b.Fatalf("%d fresh inserts, want %d", n, fresh)
	}
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			insertStream(stream)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(stream)), "ns/insert")
	})
	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tab := newFPTable(false)
			var got [2]int
			var wg sync.WaitGroup
			for g := range got {
				wg.Add(1)
				go func() {
					defer wg.Done()
					n := 0
					for j := g; j < len(stream); j += len(got) {
						if tab.insert(stream[j], 0, 0) {
							n++
						}
					}
					got[g] = n
				}()
			}
			wg.Wait()
			tab.release()
			if n := got[0] + got[1]; n != fresh {
				b.Fatalf("%d fresh inserts, want %d", n, fresh)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(stream)), "ns/insert")
	})
}

// gpu2Product is the standard sweep's 2-GPU-slice product, the one
// sweep configuration with a nontrivial symmetry group.
func gpu2Product() Config {
	for _, cfg := range StandardSweep() {
		if cfg.gpus() == 2 {
			return cfg
		}
	}
	panic("the standard sweep has no 2-GPU configuration")
}

// BenchmarkCanonical times symmetry reduction alone, as expand runs it
// on each successor: the state is copied into a successor buffer and
// canonicalised there, over a recorded set of the first 4,096 states
// the 2-GPU-slice product reaches. ns/op is per state.
func BenchmarkCanonical(b *testing.B) {
	cfg := gpu2Product()
	group := symGroup(cfg)
	sample := expandSample(cfg, 4096)
	var buf state
	var scratch [2]state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copyLive(&buf, &sample[i%len(sample)])
		canonicalize(group, &buf, &scratch)
	}
}

// BenchmarkCheck times whole explorations at the default worker count:
// the 263,848-state two-line bypass product and the 779,549-state
// 2-GPU-slice product of the standard sweep. Every iteration after the
// first draws its blocks and shard arrays from the warm free lists, so
// allocs/op and B/op are those of a warm run, not of a process's first.
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

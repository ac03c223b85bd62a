package core

import (
	"bytes"
	"sync"
	"testing"
)

// TestConcurrentBuildRelease builds, runs, snapshots and releases
// machines from several goroutines at once, all drawing on the shared
// free lists and snapshot scratch writers. Under -race a data race on
// either fails the test; every run must also match its sequential
// reference, so a recycled array handed to two machines shows up as a
// wrong answer.
func TestConcurrentBuildRelease(t *testing.T) {
	const goroutines, rounds, size = 4, 6, 16 << 10
	type outcome struct {
		ticks uint64
		blob  []byte
	}
	modes := []Mode{ModeCCSM, ModeDirectStore, ModeStandalone}
	runOnce := func(mode Mode) (outcome, error) {
		s := NewSystem(smallConfig(mode))
		defer s.Release()
		base, err := s.AllocShared(size, "buf")
		if err != nil {
			return outcome{}, err
		}
		s.RunCPU(produceOps(base, size))
		blob, err := s.Snapshot()
		if err != nil {
			return outcome{}, err
		}
		s.RunKernel(consumeKernel(base, size, 8))
		return outcome{uint64(s.Now()), blob}, s.CheckCoherence()
	}
	want := make([]outcome, len(modes))
	for i, mode := range modes {
		var err error
		if want[i], err = runOnce(mode); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (g + r) % len(modes)
				got, err := runOnce(modes[i])
				if err != nil {
					t.Error(err)
					return
				}
				if got.ticks != want[i].ticks || !bytes.Equal(got.blob, want[i].blob) {
					t.Errorf("goroutine %d round %d (%s): %d ticks, %d-byte snapshot; want %d ticks and the reference snapshot",
						g, r, modes[i], got.ticks, len(got.blob), want[i].ticks)
				}
			}
		}()
	}
	wg.Wait()
}

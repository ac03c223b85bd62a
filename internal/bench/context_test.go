package bench

import (
	"context"
	"errors"
	"testing"
	"time"

	"dstore/internal/core"
)

// TestRunWithConfigContextPreCancelled checks a dead context aborts
// before any phase runs.
func TestRunWithConfigContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := RunWithSnapshotContext(ctx, "MT", core.DefaultConfig(core.ModeCCSM), Small, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunWithConfigContextMidFlight cancels a long simulation shortly
// after it starts; the run must abort well before completing and
// report the cancellation.
func TestRunWithConfigContextMidFlight(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		// ST/big runs for seconds; cancellation lands mid-kernel.
		_, _, err := RunWithSnapshotContext(ctx, "ST", core.DefaultConfig(core.ModeCCSM), Big, nil)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled run did not return within 30s")
	}
}

// TestRunWithConfigContextBackgroundIdentical checks the context entry
// point (RunWithSnapshotContext without a store) with an uncancellable
// context reproduces RunWithConfig's result exactly (the byte-identical-output property the sweep layer
// depends on).
func TestRunWithConfigContextBackgroundIdentical(t *testing.T) {
	want, err := RunWithConfig("NN", core.DefaultConfig(core.ModeDirectStore), Small)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := RunWithSnapshotContext(context.Background(), "NN", core.DefaultConfig(core.ModeDirectStore), Small, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Ticks != want.Ticks || got.L2Accesses != want.L2Accesses ||
		got.L2Misses != want.L2Misses || got.Pushes != want.Pushes ||
		got.XbarBytes != want.XbarBytes || got.DirectBytes != want.DirectBytes {
		t.Fatalf("context run diverged from plain run:\n got %+v\nwant %+v", got, want)
	}
}

// TestSweepWithTimingsContextCancelled checks a cancelled sweep
// reports every job as failed with the context error and still returns
// a result slice of the right shape.
func TestSweepWithTimingsContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	jobs := StandardJobs(Small)[:4]
	results, _, err := SweepWithTimingsContext(ctx, jobs, SweepOptions{Workers: 2})
	if len(results) != len(jobs) {
		t.Fatalf("got %d results, want %d", len(results), len(jobs))
	}
	var se *SweepError
	if !errors.As(err, &se) {
		t.Fatalf("err = %T %v, want *SweepError", err, err)
	}
	if len(se.Failures) != len(jobs) {
		t.Fatalf("%d failures, want %d: %v", len(se.Failures), len(jobs), se)
	}
	for _, f := range se.Failures {
		if !errors.Is(f.Err, context.Canceled) {
			t.Fatalf("failure %v, want context.Canceled", f.Err)
		}
	}
}

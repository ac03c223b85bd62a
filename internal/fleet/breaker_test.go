package fleet

import (
	"context"
	"net/http"
	"testing"
	"time"
)

// clockedRegistry builds a registry on a manual clock so breaker
// cooldowns are driven by the test, not by real time.
func clockedRegistry(threshold int, cooldown, quarCool time.Duration) (*registry, func(time.Duration)) {
	r := newRegistry(http.DefaultClient, Options{
		Vnodes:             16,
		FailureThreshold:   threshold,
		BreakerCooldown:    cooldown,
		QuarantineCooldown: quarCool,
		Seed:               7,
	})
	now := time.Unix(1_700_000_000, 0)
	r.now = func() time.Time { return now }
	return r, func(d time.Duration) { now = now.Add(d) }
}

func TestBreakerTripsAtThresholdAndRecloses(t *testing.T) {
	r, advance := clockedRegistry(3, 5*time.Second, time.Minute)
	u, err := r.add("http://w1:1", true, true)
	if err != nil {
		t.Fatal(err)
	}

	// Two failures: still below threshold, still dispatchable.
	r.recordFailure(u)
	r.recordFailure(u)
	if got := r.dispatchOrder([]string{u}); len(got) != 1 {
		t.Fatalf("worker dropped before threshold: %v", got)
	}
	// Third failure trips the breaker open.
	r.recordFailure(u)
	if trips, _, _, _ := r.breakerCounts(); trips != 1 {
		t.Fatalf("trips = %d, want 1", trips)
	}
	if got := r.dispatchOrder([]string{u}); len(got) != 0 {
		t.Fatalf("open breaker still dispatchable: %v", got)
	}
	// Failures against an open breaker must not extend the cooldown.
	advance(4 * time.Second)
	r.recordFailure(u)
	r.recordFailure(u)
	advance(1 * time.Second) // 5s since the trip, despite the burst

	// Cooldown elapsed: exactly one half-open trial is admitted.
	if got := r.dispatchOrder([]string{u}); len(got) != 1 {
		t.Fatalf("no half-open trial after cooldown: %v", got)
	}
	if got := r.dispatchOrder([]string{u}); len(got) != 0 {
		t.Fatalf("second trial admitted while the first is outstanding: %v", got)
	}
	// Trial success recloses.
	r.recordSuccess(u)
	if _, recloses, _, _ := r.breakerCounts(); recloses != 1 {
		t.Fatalf("recloses = %d, want 1", recloses)
	}
	if !r.healthy(u) {
		t.Fatal("worker not healthy after reclose")
	}
	if got := r.dispatchOrder([]string{u}); len(got) != 1 {
		t.Fatalf("reclosed breaker not dispatchable: %v", got)
	}
}

func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	r, advance := clockedRegistry(1, time.Second, time.Minute)
	u, _ := r.add("http://w1:1", true, true)

	r.recordFailure(u) // threshold 1: trips immediately
	advance(time.Second)
	if got := r.dispatchOrder([]string{u}); len(got) != 1 {
		t.Fatalf("no trial after cooldown: %v", got)
	}
	r.recordFailure(u) // trial fails: back to open
	if got := r.dispatchOrder([]string{u}); len(got) != 0 {
		t.Fatal("reopened breaker still dispatchable")
	}
	trips, _, _, _ := r.breakerCounts()
	if trips != 2 {
		t.Fatalf("trips = %d, want 2 (initial + failed trial)", trips)
	}
	// A second full cooldown earns another trial.
	advance(time.Second)
	if got := r.dispatchOrder([]string{u}); len(got) != 1 {
		t.Fatalf("no second trial after re-cooldown: %v", got)
	}
}

// TestRegistryFlapDamping pins the damping behavior the threshold
// exists for: a worker alternating pass/fail probes never accumulates
// enough consecutive failures to trip, so fleet membership does not
// oscillate with it.
func TestRegistryFlapDamping(t *testing.T) {
	r, _ := clockedRegistry(3, 5*time.Second, time.Minute)
	u, _ := r.add("http://w1:1", true, true)

	for i := 0; i < 20; i++ {
		r.recordProbe(u, nil, false)
		r.recordProbe(u, &workerStats{}, true)
	}
	if trips, _, _, _ := r.breakerCounts(); trips != 0 {
		t.Fatalf("flapping probes tripped the breaker %d times", trips)
	}
	_, states := r.snapshot()
	if len(states) != 1 || states[0].Breaker != "closed" || !states[0].Healthy {
		t.Fatalf("worker state after flapping: %+v", states)
	}
	if states[0].ConsecutiveFailures != 0 {
		t.Fatalf("consecutive failures not reset by success: %+v", states[0])
	}
}

func TestQuarantineIsProbeGatedAndSticky(t *testing.T) {
	r, advance := clockedRegistry(3, time.Second, time.Minute)
	u, _ := r.add("http://w1:1", true, true)

	r.quarantineWorker(u)
	if n := r.quarantinedCount(); n != 1 {
		t.Fatalf("quarantined count = %d, want 1", n)
	}
	if got := r.dispatchOrder([]string{u}); len(got) != 0 {
		t.Fatal("quarantined worker still dispatchable")
	}
	// A healthy pulse before the cooldown must not clear quarantine.
	advance(30 * time.Second)
	r.recordProbe(u, &workerStats{}, true)
	if n := r.quarantinedCount(); n != 1 {
		t.Fatal("probe success cleared quarantine before its cooldown")
	}
	// Time alone is not enough either: no probe, no requalification.
	advance(40 * time.Second) // past the 1m cooldown
	if got := r.dispatchOrder([]string{u}); len(got) != 0 {
		t.Fatal("quarantine lifted without a successful probe")
	}
	// Cooldown elapsed AND a probe succeeds: requalified.
	r.recordProbe(u, &workerStats{}, true)
	if n := r.quarantinedCount(); n != 0 {
		t.Fatal("worker not requalified after cooldown + probe")
	}
	if _, _, quarantines, requalified := func() (uint64, uint64, uint64, uint64) {
		return r.breakerCounts()
	}(); quarantines != 1 || requalified != 1 {
		t.Fatalf("counters: quarantines=%d requalified=%d, want 1/1", quarantines, requalified)
	}
	if got := r.dispatchOrder([]string{u}); len(got) != 1 || !r.healthy(u) {
		t.Fatal("requalified worker not dispatchable")
	}
}

// TestJitteredIntervalSeeded pins the probe-schedule jitter: within
// ±20% of the interval, non-constant, and reproducible per seed.
func TestJitteredIntervalSeeded(t *testing.T) {
	mk := func(seed uint64) *registry {
		return newRegistry(http.DefaultClient, Options{Vnodes: 16, Seed: seed})
	}
	a, b := mk(9), mk(9)
	interval := time.Second
	lo, hi := 800*time.Millisecond, 1200*time.Millisecond
	distinct := map[time.Duration]bool{}
	for i := 0; i < 64; i++ {
		da, db := a.jitteredInterval(interval), b.jitteredInterval(interval)
		if da != db {
			t.Fatalf("draw %d: same seed diverged: %v vs %v", i, da, db)
		}
		if da < lo || da > hi {
			t.Fatalf("draw %d: %v outside [%v, %v]", i, da, lo, hi)
		}
		distinct[da] = true
	}
	if len(distinct) < 2 {
		t.Fatal("jitter produced a constant schedule")
	}
	// Sub-5ns intervals have no jitter span; the interval passes through.
	if d := a.jitteredInterval(2 * time.Nanosecond); d != 2*time.Nanosecond {
		t.Fatalf("tiny interval altered: %v", d)
	}
}

func TestProbeLoopExitsPromptlyOnCancel(t *testing.T) {
	r := newRegistry(http.DefaultClient, Options{Vnodes: 16, Seed: 1})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		// An hour-long interval: only prompt cancellation lets this
		// return within the test deadline.
		r.probeLoop(ctx, time.Hour)
		close(done)
	}()
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("probeLoop did not exit promptly on context cancellation")
	}
}

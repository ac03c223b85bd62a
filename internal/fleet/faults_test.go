package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"dstore/internal/fleet/chaosnet"
	"dstore/internal/serve"
)

// TestFleetFaultWalkthrough drives one worker through every fault the
// coordinator handles, in order: w0 sits behind a chaosnet proxy and
// is partitioned (each job it owns answers byte-identically from w1
// and its breaker trips), healed (a probe recloses the breaker), made
// to serve one corrupt result body (caught, quarantined, answered
// clean from w1), and requalified by a probe after the quarantine
// cooldown. Worker hosts are fixed and the breaker clock is injected,
// so every run places jobs and times cooldowns identically.
func TestFleetFaultWalkthrough(t *testing.T) {
	const w0, w1 = "http://w0", "http://w1"
	// The proxy forwards over real HTTP, so w0 itself listens on
	// loopback; the coordinator reaches it only as http://w0.
	proxy, err := chaosnet.New(startWorker(t, serve.Options{}), 1, chaosnet.FaultPlan{})
	if err != nil {
		t.Fatal(err)
	}
	ht := handlerTransport{"w0": proxy, "w1": serveHandler(t, serve.Options{Workers: 2})}
	base, c := startCoord(t, Options{
		Workers:          []string{w0, w1},
		Transport:        ht,
		SweepWorkers:     4,
		FailureThreshold: 2,
	})
	var elapsed atomic.Int64
	epoch := time.Unix(1_700_000_000, 0)
	c.reg.mu.Lock()
	c.reg.now = func() time.Time { return epoch.Add(time.Duration(elapsed.Load())) }
	c.reg.mu.Unlock()
	probe := func() { c.reg.probeAll(context.Background()) }

	// submit resubmits one sweep job through the coordinator and
	// requires the bytes the sweep streamed for it.
	submit := func(o Outcome) (worker string) {
		t.Helper()
		resp, b := postBody(t, base+"/v1/runs", string(o.Spec), nil)
		var rr runResp
		if err := json.Unmarshal(b, &rr); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("resubmit %.8s: %d: %s", o.ID, resp.StatusCode, b)
		}
		if rr.ID != o.ID || !bytes.Equal(rr.Result, o.Result) {
			t.Fatalf("resubmit %.8s answered %.8s with different bytes", o.ID, rr.ID)
		}
		return resp.Header.Get("X-Dstore-Worker")
	}
	view := func() workerState {
		t.Helper()
		code, b := getBody(t, base+"/v1/workers")
		var lst struct {
			Workers []workerState `json:"workers"`
		}
		if err := json.Unmarshal(b, &lst); err != nil || code != http.StatusOK {
			t.Fatalf("/v1/workers: %d: %s", code, b)
		}
		for _, w := range lst.Workers {
			if w.URL == w0 {
				return w
			}
		}
		t.Fatalf("/v1/workers does not list %s: %s", w0, b)
		return workerState{}
	}

	// Baseline: a clean sweep through the zero-fault proxy. Placement
	// on fixed hosts is fixed, and w0 must own jobs for the walkthrough
	// to exercise failover at all.
	matrix := `{"bench":["MT","VA","BL"],"mode":["direct-store"],"config":{"prefetch_depth":[0,2]}}`
	results, report, _ := runSweepNDJSON(t, base, matrix)
	if len(results) != 6 || report == nil || report.Completed != 6 || report.Failed != 0 {
		t.Fatalf("baseline sweep: %d results, report %+v", len(results), report)
	}
	var owned []Outcome
	for _, o := range results {
		if o.Worker == w0 {
			owned = append(owned, o)
		}
	}
	if len(owned) == 0 {
		t.Fatalf("w0 owns none of the %d jobs; failover would not be exercised", len(results))
	}

	// Partition: every job w0 owns answers from w1, byte-identical, and
	// two passes are FailureThreshold straight failures, tripping w0's
	// breaker.
	proxy.Partition(true)
	for pass := 0; pass < 2; pass++ {
		for _, o := range owned {
			if got := submit(o); got != w1 {
				t.Fatalf("partitioned job %.8s answered by %q, want the replica %s", o.ID, got, w1)
			}
		}
	}
	if st := coordStats(t, base); st["fleet_breaker_trips_total"] == 0 {
		t.Fatalf("partition did not trip the breaker: %v", st)
	}
	if v := view(); v.Healthy || v.Breaker != "open" {
		t.Fatalf("partitioned w0 reported %+v, want an open breaker", v)
	}

	// Heal: once the breaker cooldown has passed, one successful probe
	// recloses it.
	proxy.Partition(false)
	elapsed.Add(int64(c.opt.BreakerCooldown))
	probe()
	if v := view(); !v.Healthy || v.Breaker != "closed" {
		t.Fatalf("healed w0 reported %+v after a probe, want healthy and closed", v)
	}
	if st := coordStats(t, base); st["fleet_breaker_recloses_total"] == 0 {
		t.Fatalf("heal recorded no breaker reclose: %v", st)
	}

	// Corruption: w0 serves exactly one bit-flipped result body. The
	// digest check catches it, w0 is quarantined, and the clean bytes
	// come from w1.
	proxy.CorruptNext(1)
	pick := owned[0]
	if got := submit(pick); got != w1 {
		t.Fatalf("job %.8s answered by %q during corruption, want the replica %s", pick.ID, got, w1)
	}
	st := coordStats(t, base)
	if st["fleet_corrupt_results_total"] != 1 || st["fleet_quarantines_total"] == 0 {
		t.Fatalf("corruption not caught or w0 not quarantined: %v", st)
	}
	if n := proxy.Counts().Corruptions; n != 1 {
		t.Fatalf("proxy injected %d corruptions, want 1", n)
	}
	if v := view(); v.Healthy || !v.Quarantined {
		t.Fatalf("w0 reported %+v after serving corrupt bytes, want quarantined", v)
	}

	// Requalification: after the quarantine cooldown a probe clears
	// the quarantine, and w0 answers its own job again.
	elapsed.Add(int64(c.opt.QuarantineCooldown))
	probe()
	if v := view(); !v.Healthy || v.Quarantined {
		t.Fatalf("w0 reported %+v after the quarantine cooldown and a probe, want requalified", v)
	}
	if st := coordStats(t, base); st["fleet_requalified_total"] == 0 {
		t.Fatalf("requalification not counted: %v", st)
	}
	if got := submit(pick); got != w0 {
		t.Fatalf("requalified w0 did not answer job %.8s (answered by %q)", pick.ID, got)
	}
}

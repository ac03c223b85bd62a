package serve

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"dstore/internal/bench"
)

// coldOracle runs spec in process with no snapshot store and returns
// the result body a server must answer for it.
func coldOracle(t *testing.T, spec string) []byte {
	t.Helper()
	var s JobSpec
	if err := json.Unmarshal([]byte(spec), &s); err != nil {
		t.Fatal(err)
	}
	s, err := s.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := s.BuildConfig()
	if err != nil {
		t.Fatal(err)
	}
	res, err := bench.RunWithConfig(s.Bench, cfg, s.input())
	if err != nil {
		t.Fatal(err)
	}
	body, err := EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// runToResult submits a spec, waits for completion and returns the raw
// result body from /v1/runs/{id}/result.
func runToResult(t *testing.T, base, spec string) (string, []byte) {
	t.Helper()
	sub := post(t, base, spec)
	if sub.code != 200 && sub.code != 202 {
		t.Fatalf("submit %s: %d (%s)", spec, sub.code, sub.Error)
	}
	waitStatus(t, base, sub.ID, "done", 30*time.Second)
	code, body := getRaw(t, base+"/v1/runs/"+sub.ID+"/result")
	if code != 200 {
		t.Fatalf("result %s: %d: %s", sub.ID, code, body)
	}
	return sub.ID, body
}

// TestSnapshotPrefixE2E proves the warm-prefix path end to end, across
// worker counts: a second job that differs from the first only in
// GPU-pipeline knobs restores the first job's post-produce snapshot
// (the snapshot-cache hit counter increments) and still returns a
// result byte-identical to the same spec run cold, in process.
func TestSnapshotPrefixE2E(t *testing.T) {
	specA := `{"bench": "MM"}`
	specB := `{"bench": "MM", "config": {"sms": 8}}`

	coldBody := coldOracle(t, specB)

	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			base := startServer(t, mustNew(t, Options{Workers: workers}))

			_, bodyA := runToResult(t, base, specA)
			m := metricsMap(t, base)
			if m["dstore_serve_snapshot_hits_total"] != 0 || m["dstore_serve_snapshot_misses_total"] != 1 {
				t.Fatalf("after cold run: hits=%d misses=%d, want 0/1",
					m["dstore_serve_snapshot_hits_total"], m["dstore_serve_snapshot_misses_total"])
			}
			if m["dstore_serve_snapshot_entries"] != 1 {
				t.Fatalf("after cold run: %d cached snapshots, want 1", m["dstore_serve_snapshot_entries"])
			}

			idB, bodyB := runToResult(t, base, specB)
			m = metricsMap(t, base)
			if m["dstore_serve_snapshot_hits_total"] != 1 || m["dstore_serve_snapshot_misses_total"] != 1 {
				t.Fatalf("after warm run: hits=%d misses=%d, want 1/1",
					m["dstore_serve_snapshot_hits_total"], m["dstore_serve_snapshot_misses_total"])
			}
			if string(bodyB) != string(coldBody) {
				t.Fatalf("warm result differs from cold oracle:\nwarm %s\ncold %s", bodyB, coldBody)
			}
			if string(bodyB) == string(bodyA) {
				t.Fatal("specs A and B produced identical bodies; B's override is not exercising the GPU")
			}

			// The warm result is cached under B's own job ID like any
			// other: a resubmission answers from the result cache.
			resub := post(t, base, specB)
			if resub.code != 200 || !resub.Cached || resub.ID != idB {
				t.Fatalf("resubmit after warm run: code=%d cached=%v id=%s", resub.code, resub.Cached, resub.ID)
			}
		})
	}
}

// TestSnapshotTraceBypass pins the eligibility gate in the service: a
// traced job must simulate its prefix for real (the trace would
// otherwise silently lack every produce-phase event), so it neither
// reads nor seeds the snapshot cache.
func TestSnapshotTraceBypass(t *testing.T) {
	base := startServer(t, mustNew(t, Options{Workers: 1}))
	runToResult(t, base, `{"bench": "MM", "trace": true}`)
	m := metricsMap(t, base)
	if m["dstore_serve_snapshot_hits_total"] != 0 || m["dstore_serve_snapshot_misses_total"] != 0 || m["dstore_serve_snapshot_entries"] != 0 {
		t.Fatalf("traced job touched the snapshot cache: hits=%d misses=%d entries=%d",
			m["dstore_serve_snapshot_hits_total"], m["dstore_serve_snapshot_misses_total"], m["dstore_serve_snapshot_entries"])
	}

	// An untraced twin then runs cold — and a traced job after it still
	// refuses to consume the now-warm snapshot.
	runToResult(t, base, `{"bench": "MM"}`)
	runToResult(t, base, `{"bench": "MM", "config": {"sms": 8}, "trace": true}`)
	m = metricsMap(t, base)
	if m["dstore_serve_snapshot_hits_total"] != 0 || m["dstore_serve_snapshot_misses_total"] != 1 {
		t.Fatalf("traced job consumed a snapshot: hits=%d misses=%d",
			m["dstore_serve_snapshot_hits_total"], m["dstore_serve_snapshot_misses_total"])
	}
}

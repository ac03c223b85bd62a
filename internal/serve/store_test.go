package serve

import (
	"bytes"
	"context"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// runToCompletion submits spec and waits for the result body.
func runToCompletion(t *testing.T, base, spec string) (id string, body []byte) {
	t.Helper()
	r := post(t, base, spec)
	switch r.code {
	case http.StatusOK:
		return r.ID, []byte(r.Result)
	case http.StatusAccepted:
		waitStatus(t, base, r.ID, "done", time.Minute)
		code, b := getRaw(t, base+"/v1/runs/"+r.ID+"/result")
		if code != http.StatusOK {
			t.Fatalf("result fetch: %d: %s", code, b)
		}
		return r.ID, b
	default:
		t.Fatalf("submission: %d", r.code)
		return "", nil
	}
}

func shutdown(t *testing.T, srv *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestResultSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	spec := `{"bench":"MT","mode":"direct-store","input":"small"}`

	srv1 := mustNew(t, Options{Workers: 2, StoreDir: dir})
	base1 := startServer(t, srv1)
	id1, body1 := runToCompletion(t, base1, spec)
	if m := metricsMap(t, base1); m["dstore_store_disk_writes_total"] < 2 {
		// One result + at least one prefix snapshot must have landed.
		t.Fatalf("disk writes = %d, want >= 2", m["dstore_store_disk_writes_total"])
	}
	shutdown(t, srv1)

	// A new process over the same directory answers from disk without
	// simulating anything.
	srv2 := mustNew(t, Options{Workers: 2, StoreDir: dir})
	base2 := startServer(t, srv2)
	r := post(t, base2, spec)
	if r.code != http.StatusOK || !r.Cached || r.ID != id1 {
		t.Fatalf("restarted server: code=%d cached=%v id=%s (want 200/cached/%s)", r.code, r.Cached, r.ID, id1)
	}
	if !bytes.Equal([]byte(r.Result), body1) {
		t.Fatalf("restarted server served different bytes:\n  before: %s\n  after:  %s", body1, r.Result)
	}
	m := metricsMap(t, base2)
	if m["dstore_serve_jobs_executed_total"] != 0 {
		t.Fatalf("restarted server simulated %d jobs, want 0", m["dstore_serve_jobs_executed_total"])
	}
	if m["dstore_store_disk_hits_total"] == 0 {
		t.Fatal("no disk hit recorded for the restart-served result")
	}
	if m["dstore_serve_cache_hits_total"] != 1 {
		t.Fatalf("cache hits = %d, want 1 (disk-tier hits count as cache hits)", m["dstore_serve_cache_hits_total"])
	}
}

func TestSnapshotWarmFromDiskAfterRestart(t *testing.T) {
	dir := t.TempDir()
	cold := `{"bench":"NN","mode":"direct-store","input":"small"}`
	// Same produce prefix (GPU-pipeline knobs are stripped from the
	// prefix key), different full spec — so the result cache cannot
	// answer and only the snapshot store can skip the produce phase.
	warm := `{"bench":"NN","mode":"direct-store","input":"small","config":{"max_warps_per_sm":24}}`

	srv1 := mustNew(t, Options{Workers: 2, StoreDir: dir})
	base1 := startServer(t, srv1)
	_, _ = runToCompletion(t, base1, cold)
	shutdown(t, srv1)

	// Oracle: the warm spec run cold, in process.
	want := coldOracle(t, warm)

	srv2 := mustNew(t, Options{Workers: 2, StoreDir: dir})
	base2 := startServer(t, srv2)
	_, got := runToCompletion(t, base2, warm)
	if !bytes.Equal(got, want) {
		t.Fatalf("snapshot-warm result differs from cold oracle:\n  warm: %s\n  cold: %s", got, want)
	}
	m := metricsMap(t, base2)
	if m["dstore_serve_snapshot_hits_total"] != 1 {
		t.Fatalf("snapshot hits = %d, want 1 (produce phase restored from disk)", m["dstore_serve_snapshot_hits_total"])
	}
	if m["dstore_store_disk_hits_total"] == 0 {
		t.Fatal("no disk hit recorded for the restored snapshot")
	}
	if m["dstore_serve_jobs_executed_total"] != 1 {
		t.Fatalf("executed = %d, want exactly the warm job", m["dstore_serve_jobs_executed_total"])
	}
}

func TestCorruptStoreEntryQuarantinedAtBoot(t *testing.T) {
	dir := t.TempDir()
	spec := `{"bench":"MT","mode":"direct-store","input":"small"}`

	srv1 := mustNew(t, Options{Workers: 1, StoreDir: dir})
	base1 := startServer(t, srv1)
	id, body1 := runToCompletion(t, base1, spec)
	shutdown(t, srv1)

	// Flip a byte inside the stored result body on disk.
	path := filepath.Join(dir, "result", id[:2], id)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// Boot must succeed, count the quarantined entry, and re-simulate
	// rather than serve the damaged bytes.
	srv2 := mustNew(t, Options{Workers: 1, StoreDir: dir})
	base2 := startServer(t, srv2)
	m := metricsMap(t, base2)
	if m["dstore_store_corrupt_entries"] != 1 {
		t.Fatalf("corrupt entries = %d, want 1", m["dstore_store_corrupt_entries"])
	}
	id2, body2 := runToCompletion(t, base2, spec)
	if id2 != id || !bytes.Equal(body2, body1) {
		t.Fatalf("re-simulated result differs: id=%s vs %s", id2, id)
	}
	if m2 := metricsMap(t, base2); m2["dstore_serve_jobs_executed_total"] != 1 {
		t.Fatalf("executed = %d, want 1 (corrupt entry must not be served)", m2["dstore_serve_jobs_executed_total"])
	}
}

func TestStoreDirUnopenable(t *testing.T) {
	f := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Options{Workers: 1, StoreDir: f}); err == nil {
		t.Fatal("New accepted a store rooted at a regular file")
	}
}

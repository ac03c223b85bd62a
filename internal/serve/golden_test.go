package serve

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"dstore/internal/bench"
	"dstore/internal/core"
)

var update = flag.Bool("update", false, "rewrite golden files from current simulator output")

// TestGoldenResultsPinned runs every Table II benchmark under both
// coherence modes (small inputs) and compares the canonical result
// encodings byte-for-byte against a pinned golden file. This is the
// guard that chaos instrumentation stays inert when disabled: any
// behavioural drift — one tick, one message — shows up as a diff.
//
// Regenerate deliberately with: go test ./internal/serve -run Golden -update
func TestGoldenResultsPinned(t *testing.T) {
	type job struct {
		code string
		mode core.Mode
	}
	var jobs []job
	for _, code := range bench.Codes() {
		for _, mode := range []core.Mode{core.ModeCCSM, core.ModeDirectStore} {
			jobs = append(jobs, job{code, mode})
		}
	}

	lines := make([][]byte, len(jobs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i, j := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			res, err := bench.RunWithConfig(j.code, core.DefaultConfig(j.mode), bench.Small)
			if err != nil {
				t.Errorf("%s/%s: %v", j.code, j.mode, err)
				return
			}
			enc, err := EncodeResult(res)
			if err != nil {
				t.Errorf("%s/%s: %v", j.code, j.mode, err)
				return
			}
			lines[i] = enc
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	var got bytes.Buffer
	for _, l := range lines {
		got.Write(l)
		got.WriteByte('\n')
	}

	path := filepath.Join("testdata", "golden_small.jsonl")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d runs)", path, len(jobs))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gotLines := bytes.Split(got.Bytes(), []byte("\n"))
	wantLines := bytes.Split(want, []byte("\n"))
	for i := range jobs {
		var g, w []byte
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if !bytes.Equal(g, w) {
			t.Errorf("%s/%s drifted:\n got: %s\nwant: %s",
				jobs[i].code, jobs[i].mode, g, w)
		}
	}
	if !t.Failed() {
		t.Fatalf("golden file %s differs (line count or trailing bytes)", path)
	}
}

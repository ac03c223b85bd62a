package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"dstore/internal/bench"
)

var update = flag.Bool("update", false, "rewrite testdata goldens from current output")

// runMain runs the CLI in process with the given arguments and returns
// what it printed to stdout.
func runMain(t *testing.T, args ...string) []byte {
	t.Helper()
	stdout, err := os.Create(filepath.Join(t.TempDir(), "stdout.txt"))
	if err != nil {
		t.Fatal(err)
	}
	oldArgs, oldOut, oldFlags := os.Args, os.Stdout, flag.CommandLine
	os.Args = append([]string{"dstore-bench"}, args...)
	os.Stdout = stdout
	flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	main()
	os.Args, os.Stdout, flag.CommandLine = oldArgs, oldOut, oldFlags
	if err := stdout.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(stdout.Name())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchGolden pins the stdout of `-bench MM -input small`: the
// single-benchmark comparison of both modes. Regenerate with -update
// only for a deliberate change to the simulation or the printout.
func TestBenchGolden(t *testing.T) {
	got := runMain(t, "-bench", "MM", "-input", "small")
	path := filepath.Join("testdata", "bench_mm_small.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if string(got) != string(want) {
		t.Errorf("-bench MM -input small output drifted from %s:\n got:\n%s want:\n%s", path, got, want)
	}
}

// TestFig5JSON runs `-fig5 -json -input small` in process, without
// -fig4, and checks that stdout carries one fig5-small document with a
// row per Table II benchmark, each with both modes' miss rates.
func TestFig5JSON(t *testing.T) {
	b := runMain(t, "-fig5", "-json", "-input", "small", "-workers", "2")
	var doc struct {
		Figure string
		Rows   []struct {
			Code          string
			CCSM, DS      struct{ L2Accesses, L2Misses uint64 }
			MissRateDelta *float64 `json:"miss_rate_delta"`
		}
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("stdout is not one JSON document (%d bytes): %v", len(b), err)
	}
	if doc.Figure != "fig5-small" {
		t.Errorf("figure = %q, want fig5-small", doc.Figure)
	}
	codes := bench.Codes()
	if len(doc.Rows) != len(codes) {
		t.Fatalf("%d rows, want one per benchmark (%d)", len(doc.Rows), len(codes))
	}
	for i, r := range doc.Rows {
		if r.Code != codes[i] || r.CCSM.L2Accesses == 0 || r.DS.L2Accesses == 0 || r.MissRateDelta == nil {
			t.Errorf("row %d lacks its code or miss-rate fields: %+v", i, r)
		}
	}
}

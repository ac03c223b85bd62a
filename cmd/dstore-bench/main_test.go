package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"dstore/internal/bench"
)

// TestFig5JSON runs `-fig5 -json -input small` in process, without
// -fig4, and checks that stdout carries one fig5-small document with a
// row per Table II benchmark, each with both modes' miss rates.
func TestFig5JSON(t *testing.T) {
	stdout, err := os.Create(filepath.Join(t.TempDir(), "stdout.json"))
	if err != nil {
		t.Fatal(err)
	}
	args, out := os.Args, os.Stdout
	os.Args = []string{"dstore-bench", "-fig5", "-json", "-input", "small", "-workers", "2"}
	os.Stdout = stdout
	flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	main()
	os.Args, os.Stdout = args, out
	if err := stdout.Close(); err != nil {
		t.Fatal(err)
	}

	b, err := os.ReadFile(stdout.Name())
	if err != nil {
		t.Fatal(err)
	}
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
